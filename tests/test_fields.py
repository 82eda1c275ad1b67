import time

import pytest

from polystab.cli import main
from polystab.convex import AffineFunc
from polystab.fields import QuadraticPoly, parse_field

# (expression, dimension, coefficients): (c0, cx, cy, cxx, cxy, cyy) of a
# QuadraticPoly, or (a0, a) of an AffineFunc
PARSED = [
    ("48*x^2 - 48*x + 10", 1, (10.0, -48.0, 0.0, 48.0, 0.0, 0.0)),
    ("-x^2", 1, (0.0, 0.0, 0.0, -1.0, 0.0, 0.0)),
    ("2*-x^2", 1, (0.0, 0.0, 0.0, -2.0, 0.0, 0.0)),
    ("4 + 12*(x - 1/2)^2", 2, (7.0, -12.0, 0.0, 12.0, 0.0, 0.0)),
    ("x1*x2", 2, (0.0, 0.0, 0.0, 0.0, 1.0, 0.0)),
    ("(x + y)**2 - y^2", 2, (0.0, 0.0, 0.0, 1.0, 2.0, 0.0)),
    ("x/4", 1, (0.0, (0.25,))),
    ("1e-3*x", 1, (0.0, (0.001,))),
    ("1_000*y + 2", 2, (2.0, (0.0, 1000.0))),
    ("2^3", 1, (8.0, (0.0,))),
    ("2^10", 1, (1024.0, (0.0,))),
    ("(1/3)^3", 1, (0.037037037037037035, (0.0,))),  # the repeated product, not 1/27
    ("affine:1,2,3", 2, (1.0, (2.0, 3.0))),
]


@pytest.mark.parametrize("text, dimension, expected", PARSED, ids=[t for t, _, _ in PARSED])
def test_parse_field_coefficients(text, dimension, expected):
    field = parse_field(text, dimension)
    if isinstance(field, QuadraticPoly):
        assert field.dimension == dimension
        assert field.coeffs == expected
    else:
        assert isinstance(field, AffineFunc)
        assert (field.a0, tuple(field.a)) == expected


REFUSED = [
    ("x^3", 1), ("(0*x+1)^3", 1), ("x*x*y", 2), ("1/x", 1), ("x/0", 1), ("x/(1-1)", 1),
    ("x^-1", 1), ("x^y", 2), ("x^2.5", 1), ("x^02", 1), ("2 x", 1), ("y", 1), ("f(x)", 1),
    ("x.real", 1), ("__import__('os')", 1), ("True*x", 1), ("x // 2", 1), ("x % 2", 1),
    ("'x'", 1), ("1j*x", 1), ("", 1), ("-" * 5000 + "x", 1), ("affine:1,2", 2),
    ("affine:1,2,3", 1), ("1e200*1e200", 1), ("2^2000", 1), ("1e999*x", 1),
    ("x/(1e200*1e200)", 1), ("affine:nan,1", 1), ("affine:inf,0", 1), ("affine:1,2,-inf", 2),
]


@pytest.mark.parametrize("text, dimension", REFUSED, ids=[t[:20] for t, _ in REFUSED])
def test_parse_field_refuses(text, dimension):
    with pytest.raises(ValueError):
        parse_field(text, dimension)


def test_high_power_is_refused_at_once():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="total degree 2"):
        parse_field("x^100000", 1)
    assert time.perf_counter() - start < 0.5


def test_high_power_of_a_constant_is_refused_at_once():
    # the parent multiplied a constant by itself k times: 1.4 s for this one
    start = time.perf_counter()
    with pytest.raises(ValueError, match="at most 1000"):
        parse_field("1.0000001^1000000", 1)
    assert time.perf_counter() - start < 0.5


def test_bad_field_exits_2_with_the_error_prefix(tmp_path, capsys):
    path = tmp_path / "interval.txt"
    path.write_text("# polystab polytope\ndimension: 1\nfacet: 1.0 0.0\nfacet: -1.0 -1.0\n")
    argv = ["eval", "--polytope", str(path), "--A", "x/0", "--op", "linear-functional"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: bad field expression 'x/0'")
    argv[argv.index("x/0")] = "1e200*1e200"
    assert main(argv) == 2
    assert "not finite" in capsys.readouterr().err

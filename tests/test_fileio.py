import numpy as np
import pytest

from polystab import cli, solver
from polystab.convex import AffineFunc, MeshConvexFunc, PLConvexFunc
from polystab.fileio import (
    mesh_function_from_text,
    mesh_function_to_text,
    pl_from_text,
    pl_to_text,
    polytope_from_text,
    polytope_to_text,
    read_mesh_function,
    read_pl_function,
    read_polytope,
    write_mesh_function,
    write_pl_function,
    write_polytope,
)
from polystab.mesh import make_mesh
from polystab.polytope import build_polytope

# offsets and normals that decimal text cannot hold exactly unless repr is used
PENTAGON = build_polytope([((1.0, 0.0), 0.0), ((0.0, 1.0), -0.1), ((-1.0, 0.0), -3.0 + 1 / 3),
                           ((0.0, -1.0), -2.0), ((-1.0, -1.0), -4.0)], name="pentagon")


def test_polytope_round_trip_is_bit_exact(tmp_path):
    path = tmp_path / "pentagon.txt"
    write_polytope(PENTAGON, path)
    back = read_polytope(path)
    assert back.name == PENTAGON.name
    assert back.dimension == PENTAGON.dimension
    assert np.array_equal(back.normals, PENTAGON.normals)
    assert np.array_equal(back.offsets, PENTAGON.offsets)
    assert np.array_equal(back.vertices, PENTAGON.vertices)
    assert polytope_to_text(back) == path.read_text()


def test_pl_function_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(2)
    u = PLConvexFunc(tuple(AffineFunc(float(c), tuple(float(v) for v in a))
                           for c, a in zip(rng.standard_normal(4), rng.standard_normal((4, 2)))))
    path = tmp_path / "u.txt"
    write_pl_function(u, path)
    back = read_pl_function(path)
    assert [(p.a0, tuple(p.a)) for p in back.pieces] == [(p.a0, tuple(p.a)) for p in u.pieces]
    assert pl_to_text(back) == path.read_text()


def test_mesh_function_round_trip_is_bit_exact(tmp_path):
    mesh = make_mesh(PENTAGON, 1 / 3)
    values = np.random.default_rng(4).standard_normal(mesh.num_vertices) / 3.0
    u = MeshConvexFunc(mesh, values, p_o_index=5)
    path = tmp_path / "u.mesh"
    write_mesh_function(u, path)
    back = read_mesh_function(path)
    assert back.p_o_index == 5
    assert back.mesh.h == mesh.h
    assert np.array_equal(back.mesh.vertices, mesh.vertices)
    assert np.array_equal(back.values, values)
    assert mesh_function_to_text(back) == path.read_text()


def test_solve_checkpoint_reads_back_the_solution(tmp_path, monkeypatch):
    solve = solver.solve_2d_descent
    states = []

    def recording(*args, **kwargs):
        states.append(solve(*args, **kwargs))
        return states[-1]

    monkeypatch.setattr(solver, "solve_2d_descent", recording)
    polytope = tmp_path / "pentagon.txt"
    write_polytope(PENTAGON, polytope)
    out = str(tmp_path / "solve.txt")
    assert cli.main(["solve", "--polytope", str(polytope), "--h", "0.25", "--out", out]) == 0
    (state,) = states
    assert np.any(state.f != 0.0)
    back = read_mesh_function(out + ".checkpoint")
    assert np.array_equal(back.values, state.full_values())
    assert np.array_equal(back.mesh.vertices, state.mesh.vertices)


@pytest.mark.parametrize("reader, text", [
    (polytope_from_text, polytope_to_text(PENTAGON) + "volume: 1.0\n"),
    (pl_from_text, "dimension: 1\npiece: 1.0 0.0\nslope: 2.0\n"),
    (mesh_function_from_text, "h: 0.5\nweight: 1.0\n" + polytope_to_text(PENTAGON)),
])
def test_readers_reject_an_unknown_key(reader, text):
    with pytest.raises(ValueError, match="unknown"):
        reader(text)


@pytest.mark.parametrize("key", ["h", "values"])
def test_mesh_function_rejects_a_non_finite_number(key):
    mesh = make_mesh(PENTAGON, 1 / 2)
    text = mesh_function_to_text(MeshConvexFunc(mesh, np.zeros(mesh.num_vertices)))
    text = text.replace("h: 0.5", "h: nan") if key == "h" else text.replace("values: 0.0", "values: inf")
    with pytest.raises(ValueError, match=f"'{key}' line has a non-finite number"):
        mesh_function_from_text(text)


def test_mesh_function_rejects_a_wrong_value_count():
    mesh = make_mesh(PENTAGON, 1 / 2)
    u = MeshConvexFunc(mesh, np.zeros(mesh.num_vertices))
    text = mesh_function_to_text(u).replace("values: 0.0 ", "values: ", 1)
    with pytest.raises(ValueError, match="value count"):
        mesh_function_from_text(text)


def test_stability_witness_reads_back_on_the_mesh_through_p_o(tmp_path, capsys):
    # the pentagon's witness lives on the mesh with grid lines through p_o; its
    # file names that point, so the reader builds the same mesh
    polytope = tmp_path / "pentagon.txt"
    write_polytope(build_polytope([((1.0, 0.0), 0.0), ((0.0, 1.0), 0.0), ((-1.0, 0.0), -3.0),
                                   ((0.0, -1.0), -2.0), ((-1.0, -1.0), -4.0)]), polytope)
    out = str(tmp_path / "stability.txt")
    assert cli.main(["stability", "--polytope", str(polytope), "--h", "0.25", "--out", out]) == 0
    text = open(out + ".witness").read()
    assert "point: 1.393939393939394 0.9393939393939394\n" in text
    back = read_mesh_function(out + ".witness")
    assert back.p_o_index == back.mesh.point_vertex and back.values[back.p_o_index] == 0.0
    assert back.mesh.vertices[back.p_o_index].tolist() == [1.393939393939394, 0.9393939393939394]
    assert mesh_function_to_text(back) == text

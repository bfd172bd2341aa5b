import re

import numpy as np
import pytest

from fracdrum import (GridSpec, KernelParams, LatticeField, MultiIndicator,
                      component_signs, connected_components)


def test_grid_requires_integer_cell_count():
    with pytest.raises(ValueError):
        GridSpec(n=1, h=0.3, L=1.0)
    with pytest.raises(ValueError):
        GridSpec(n=1, h=0.25, L=-1.0)
    with pytest.raises(ValueError):
        GridSpec(n=3, h=0.25, L=1.0)


def test_grid_geometry():
    g = GridSpec(n=1, h=0.25, L=2.0)
    assert g.cells_per_side == 16
    assert g.cell_volume == 0.25
    c = g.cell_centers()
    assert c.shape == (16, 1)
    assert np.allclose(c[:, 0], -c[::-1, 0])
    assert c[0, 0] == pytest.approx(-2.0 + 0.125)

    g2 = GridSpec(n=2, h=0.5, L=1.0, copies=3)
    assert g2.shape == (4, 4)
    assert g2.cell_volume == 0.25
    assert g2.cell_centers().shape == (16, 2)


def test_kernel_params_validation():
    kp = KernelParams(n=1, s=0.5)
    assert kp.exponent == 2.0
    with pytest.raises(ValueError):
        KernelParams(n=1, s=0.0)
    with pytest.raises(ValueError):
        KernelParams(n=1, s=1.0)
    with pytest.raises(ValueError):
        KernelParams(n=3, s=0.5)


@pytest.mark.parametrize("h,L", [(0.25, 1e308), (1e-300, 1e10), (0.25, np.nan)])
def test_grid_rejects_non_finite_cell_count(h, L):
    with pytest.raises(ValueError, match="^'L'/'h' must be a positive integer"):
        GridSpec(n=1, h=h, L=L)


@pytest.mark.parametrize("field,value", [
    ("n", 1.0), ("n", True), ("n", 2.0),
    ("copies", 1.5), ("copies", 2.0), ("copies", True), ("copies", 0),
])
def test_grid_integer_fields_are_refused_by_name(field, value):
    with pytest.raises(ValueError, match=rf"^'{field}' must be"):
        GridSpec(**{"n": 1, "h": 0.25, "L": 1.0, field: value})
    # numpy integers are integers
    assert GridSpec(n=np.int64(2), h=0.25, L=1.0, copies=np.int32(2)).copies == 2


@pytest.mark.parametrize("copy", [-1, 2, 3, 1.0, True, None])
def test_from_interval_refuses_a_copy_outside_the_grid(copy):
    g = GridSpec(n=1, h=0.25, L=1.0, copies=2)
    with pytest.raises(ValueError, match=r"^'copy' must be an integer in 0\.\.1"):
        MultiIndicator.from_interval(g, -0.5, 0.5, copy=copy)
    assert MultiIndicator.from_interval(g, -0.5, 0.5, copy=np.int64(1)).masks[1].any()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_lattice_field_refuses_non_finite_values(bad):
    g = GridSpec(n=1, h=0.25, L=1.0, copies=2)
    vals = np.zeros((2, *g.shape))
    vals[1, 2:6] = [1.0, 2.0, bad, 3.0]
    with pytest.raises(ValueError, match="finite"):
        LatticeField(g, vals)
    A = MultiIndicator(g, vals != 0)
    with pytest.raises(ValueError, match="finite"):
        A.field([1.0, 2.0, bad, 3.0])


def test_indicator_boundary_enforcement():
    g = GridSpec(n=1, h=0.25, L=1.0)
    mask = np.zeros(g.shape, dtype=bool)
    mask[0] = True
    with pytest.raises(ValueError):
        MultiIndicator(g, [mask])
    mask2 = np.zeros(g.shape, dtype=bool)
    mask2[3:5] = True
    A = MultiIndicator(g, [mask2])
    assert A.cell_count() == 2
    assert A.volume() == pytest.approx(0.5)


def test_from_interval_and_cell_ids():
    g = GridSpec(n=1, h=0.25, L=2.0, copies=2)
    A = MultiIndicator.from_interval(g, -1.0, 1.0, copy=1)
    assert A.cell_count() == 8
    copies, flats = np.divmod(np.flatnonzero(A.masks), g.box_size)
    assert all(copies == 1)
    assert list(flats) == sorted(flats)

    empty = MultiIndicator.empty(g)
    assert empty.is_empty()
    assert empty.cell_count() == 0


def test_indicator_masks_are_isolated():
    g = GridSpec(n=1, h=0.25, L=1.0)
    mask = np.zeros(g.shape, dtype=bool)
    mask[3] = True
    A = MultiIndicator(g, [mask])
    mask[4] = True
    assert A.cell_count() == 1


@pytest.mark.parametrize("make,noun", [
    (lambda g, arrays: MultiIndicator(g, [a != 0 for a in arrays]), ("masks", "mask")),
    (LatticeField, ("value arrays", "value")),
], ids=["MultiIndicator", "LatticeField"])
def test_wrong_copy_count_or_shape_is_refused_by_name(make, noun):
    g = GridSpec(n=1, h=0.25, L=1.0, copies=2)
    ok = np.zeros(g.shape)
    with pytest.raises(ValueError, match=rf"^need 2 {noun[0]}, got 1$"):
        make(g, [ok])
    with pytest.raises(ValueError, match=rf"^need 2 {noun[0]}, got 3$"):
        make(g, [ok, ok, ok])
    # a wrong per-copy shape, and a ragged list numpy could not stack
    for arrays in ([np.zeros((8, 1)), np.zeros((8, 1))], [ok, np.zeros(5)]):
        shape = next(a.shape for a in arrays if a.shape != g.shape)
        with pytest.raises(ValueError, match=re.escape(
                f"{noun[1]} shape {shape} != grid shape {g.shape}")):
            make(g, arrays)


def test_stacked_masks_and_values_index_per_copy():
    g = GridSpec(n=2, h=0.25, L=1.0, copies=3)
    masks = [np.zeros(g.shape, dtype=bool) for _ in range(g.copies)]
    masks[0][2, 3] = masks[2][1, 1] = masks[2][4, 5] = True
    A = MultiIndicator(g, masks)
    assert A.masks.shape == (3, 8, 8) and not A.masks.flags.writeable
    assert len(A.masks) == 3
    assert all(np.array_equal(a, b) for a, b in zip(A.masks, masks))
    assert [divmod(int(i), g.box_size) for i in np.flatnonzero(A.masks)] \
        == [(0, 19), (2, 9), (2, 37)]
    assert list(np.flatnonzero(A.masks)) == [19, 2 * 64 + 9, 2 * 64 + 37]
    u = LatticeField(g, np.where(A.masks, 2.0, 0.0))
    assert u.values[2][4, 5] == 2.0 and not u.values.flags.writeable
    assert u.support == A


def test_lattice_field_support_consistency():
    g = GridSpec(n=1, h=0.5, L=1.0)
    vals = np.zeros(g.shape)
    vals[1] = 2.0
    u = LatticeField(g, [vals])
    assert u.norm_sq() == pytest.approx(0.5 * 4.0)


def test_connected_components_1d():
    g = GridSpec(n=1, h=0.125, L=2.0, copies=2)
    m0 = np.zeros(g.shape, dtype=bool)
    m0[2:5] = True
    m0[8:10] = True
    m1 = np.zeros(g.shape, dtype=bool)
    m1[20:23] = True
    A = MultiIndicator(g, [m0, m1])
    decomp = connected_components(A)
    assert decomp.count == 3
    assert [int(ids[0]) // g.box_size for ids in decomp.cells] == [0, 0, 1]
    assert decomp.labels[0][2] == decomp.labels[0][4]
    assert decomp.labels[0][2] != decomp.labels[0][8]
    assert decomp.labels[0][0] == -1


def test_connected_components_2d_face_adjacency_only():
    g = GridSpec(n=2, h=0.25, L=1.0)
    m = np.zeros(g.shape, dtype=bool)
    m[2, 2] = True
    m[3, 3] = True          # diagonal neighbor: separate component
    m[2, 3] = False
    A = MultiIndicator(g, [m])
    assert connected_components(A).count == 2
    m[2, 3] = True          # bridge cell joins them
    A = MultiIndicator(g, [m])
    assert connected_components(A).count == 1


def flood_fill_oracle(A):
    """Plain stack flood fill over face neighbors, scanning cells row-major."""
    labels, cells, next_id = [], [], 0
    for copy, mask in enumerate(A.masks):
        lab = np.full(mask.shape, -1)
        for idx in np.ndindex(*mask.shape):
            if not mask[idx] or lab[idx] != -1:
                continue
            lab[idx] = next_id
            stack, members = [idx], []
            while stack:
                cur = stack.pop()
                members.append(np.ravel_multi_index(cur, mask.shape))
                for axis in range(mask.ndim):
                    for step in (-1, 1):
                        nb = list(cur)
                        nb[axis] += step
                        nb = tuple(nb)
                        if (0 <= nb[axis] < mask.shape[axis] and mask[nb]
                                and lab[nb] == -1):
                            lab[nb] = next_id
                            stack.append(nb)
            cells.append((copy, sorted(members)))
            next_id += 1
        labels.append(lab)
    return labels, next_id, cells


@pytest.mark.parametrize("n,copies", [(1, 2), (2, 2), (1, 3), (2, 3)],
                         ids=["1", "2", "1-copies3", "2-copies3"])
def test_connected_components_match_flood_fill(n, copies):
    g = GridSpec(n=n, h=1 / 32 if n == 1 else 1 / 8, L=1.0, copies=copies)
    rng = np.random.default_rng(21 + n)
    for trial in range(40):
        masks = []
        for _ in range(g.copies):
            m = np.zeros(g.shape, dtype=bool)
            core = (slice(1, -1),) * n
            m[core] = rng.random(m[core].shape) < rng.uniform(0.0, 0.8)
            masks.append(m)
        A = MultiIndicator(g, masks)
        labels, count, cells = flood_fill_oracle(A)
        decomp = connected_components(A)
        assert decomp.count == count
        for got, want in zip(decomp.labels, labels):
            assert np.array_equal(got, want)
        assert [ids.tolist() for ids in decomp.cells] \
            == [[c * g.box_size + f for f in flats] for c, flats in cells]


def test_component_signs():
    g = GridSpec(n=1, h=0.125, L=2.0)
    m = np.zeros(g.shape, dtype=bool)
    m[2:4] = True
    m[8:10] = True
    m[14:15] = True
    A = MultiIndicator(g, [m])
    decomp = connected_components(A)
    vals = np.zeros(g.shape)
    vals[2:4] = 1.0
    vals[8] = -1.0
    vals[9] = 2.0
    u = LatticeField(g, [vals])
    assert component_signs(decomp, u) == [1, "mixed", 0]


def test_labelling_leaves_ndimage_unloaded():
    # labelling runs on every annealed shape; loading scipy.ndimage for it
    # would cost each process about 0.1 s
    import os
    import subprocess
    import sys
    import fracdrum
    src = os.path.dirname(os.path.dirname(fracdrum.__file__))
    code = ("import sys, numpy as np\n"
            "from fracdrum import GridSpec, MultiIndicator\n"
            "g = GridSpec(n=2, h=0.25, L=1.0, copies=2)\n"
            "m = np.zeros((2, 8, 8), dtype=bool)\n"
            "m[0, 2:5, 3] = m[1, 4, 2:6] = True\n"
            "assert MultiIndicator(g, m).components.count == 2\n"
            "print('scipy.ndimage' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]

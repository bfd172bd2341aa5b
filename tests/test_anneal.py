import hashlib
import math
import re

import numpy as np
import pytest

from fracdrum import (AnnealSchedule, GridSpec, KernelParams, LatticeField,
                      MultiIndicator, apply_move, assemble_form, diagnostics,
                      dirichlet_eigs, energy_decomposition, enumerate_moves,
                      interaction_energy, minimize, objective,
                      translation_gradient)
from fracdrum.grid import _open_face, component_signs

KP = KernelParams(n=1, s=0.5)


def small_two_copy():
    g = GridSpec(n=1, h=0.25, L=1.0, copies=2)
    m = np.zeros(g.shape, dtype=bool)
    m[2:4] = True
    return MultiIndicator(g, [m, np.zeros(g.shape, dtype=bool)])


def test_move_enumeration_order_and_legality():
    A = small_two_copy()
    moves = enumerate_moves(A, min_cells=1)
    expected = [
        ("flip", 1), ("flip", 2), ("flip", 3), ("flip", 4),
        ("translate", 0, 0, -1), ("translate", 0, 0, 1),
        ("relocate", 0, 1),
    ]
    assert moves == expected
    # the list is kept on the shape, and each call returns its own copy
    moves.clear()
    assert enumerate_moves(A, min_cells=1) == expected
    # raising the floor removes the two removal flips only
    moves2 = enumerate_moves(A, min_cells=2)
    assert moves2 == [
        ("flip", 1), ("flip", 4),
        ("translate", 0, 0, -1), ("translate", 0, 0, 1),
        ("relocate", 0, 1),
    ]


def test_moves_respect_box_interior():
    g = GridSpec(n=1, h=0.25, L=1.0)
    m = np.zeros(g.shape, dtype=bool)
    m[1] = True   # innermost legal cell on the left
    moves = enumerate_moves(MultiIndicator(g, [m]), min_cells=1)
    assert ("translate", 0, 0, -1) not in moves
    assert ("translate", 0, 0, 1) in moves
    assert ("flip", 0) not in moves
    assert ("flip", 2) in moves


def test_translate_may_close_a_gap():
    # components one empty cell apart may slide into contact; merging is the
    # annealer's business, not the enumerator's
    g = GridSpec(n=1, h=0.125, L=1.0)
    m = np.zeros(g.shape, dtype=bool)
    m[2:4] = True
    m[5] = True
    mv = enumerate_moves(MultiIndicator(g, [m]), min_cells=1)
    assert ("translate", 0, 0, 1) in mv
    assert ("translate", 1, 0, -1) in mv
    merged = apply_move(MultiIndicator(g, [m]), ("translate", 1, 0, -1))
    assert list(np.flatnonzero(merged.masks[0])) == [2, 3, 4]


def test_apply_move_flip_translate_relocate():
    A = small_two_copy()
    added = apply_move(A, ("flip", 4))
    assert added.masks[0][4] and added.cell_count() == 3
    removed = apply_move(A, ("flip", 3))
    assert not removed.masks[0][3] and removed.cell_count() == 1
    shifted = apply_move(A, ("translate", 0, 0, 1))
    assert list(np.flatnonzero(shifted.masks[0])) == [3, 4]
    moved = apply_move(A, ("relocate", 0, 1))
    assert moved.masks[0].sum() == 0
    assert list(np.flatnonzero(moved.masks[1])) == [2, 3]
    with pytest.raises(ValueError):
        apply_move(A, ("teleport", 0, 0))


def test_apply_move_rejects_illegal_component_moves():
    g = GridSpec(n=1, h=0.25, L=1.0, copies=2)
    m0, m1 = np.zeros(g.shape, dtype=bool), np.zeros(g.shape, dtype=bool)
    m0[2:4] = True
    m1[3:5] = True
    A = MultiIndicator(g, [m0, m1])
    # the target cells 2-3 of copy 1 overlap the other component's cell 3
    with pytest.raises(ValueError, match="held by another component"):
        apply_move(A, ("relocate", 0, 1))
    for move in (("relocate", 2, 1), ("relocate", -1, 1), ("translate", 2, 0, 1)):
        with pytest.raises(ValueError, match="no component"):
            apply_move(A, move)
    for target in (-1, 2, 0):
        with pytest.raises(ValueError, match="target copy"):
            apply_move(A, ("relocate", 0, target))
    # a flip names a cell of the 16-cell stack; ids, axes and signs are
    # integers, Python or numpy, never bools or floats
    for move in (("flip", -15), ("flip", 16), ("flip", 2.0), ("flip", True),
                 ("translate", 0, 0, 1.0), ("translate", 0, 0, True),
                 ("translate", 0.0, 0, 1), ("relocate", 0, 1.0), ("flip",),
                 ("translate", 0, 0)):
        with pytest.raises(ValueError, match=re.escape(repr(move))):
            apply_move(A, move)
    assert apply_move(A, ("flip", np.int64(1))).masks[0][1]
    assert apply_move(A, ("translate", np.int32(1), np.int64(0),
                          np.int8(1))).masks[1][5]
    # the legal moves of the same shape still apply
    B = small_two_copy()
    assert apply_move(B, ("relocate", 0, 1)).cell_count() == 2


def chain_digest(res) -> str:
    """sha256 of a chain's trace, best and final masks and best eigenvalues,
    with every float written exactly (``float.hex``)."""
    h = hashlib.sha256()
    for r in res.trace:
        h.update(f"{r.step},{r.temperature.hex()},{r.objective.hex()},"
                 f"{int(r.accepted)},{r.kind}\n".encode())
    h.update(res.best.masks.tobytes())
    h.update(res.final.masks.tobytes())
    h.update(",".join(float(v).hex() for v in res.best_spectrum.eigenvalues).encode())
    return h.hexdigest()


def two_interval_chain(steps=600):
    """A 1-D two-copy k=2 chain that proposes flips, translates and
    relocates, and ends with its best shape split across both copies."""
    g = GridSpec(n=1, h=0.125, L=1.0, copies=2)
    m = np.zeros(g.shape, dtype=bool)
    m[3:6] = True
    m[9:13] = True
    init = MultiIndicator(g, [m, np.zeros(g.shape, dtype=bool)])
    return minimize(init, KP, k=2,
                    schedule=AnnealSchedule(steps=steps, cooling=0.995,
                                            initial_temperature=0.3, seed=11))


def test_frozen_chain_digests():
    # recorded from a build that assembled and solved every proposal; the
    # bytes hold for one numpy/scipy build and BLAS
    res = two_interval_chain()
    assert {r.kind for r in res.trace} == {"flip", "translate", "relocate"}
    assert chain_digest(res) == (
        "81b12dcd4214746896cc160238b7816cfa12930cb8e3e03dd2df581ed29c7648")

    g = GridSpec(n=2, h=0.125, L=1.0, copies=2)
    c = g.axis_centers()
    x, y = np.meshgrid(c, c, indexing="ij")
    init = MultiIndicator(g, [x ** 2 + y ** 2 < 0.3 ** 2, np.zeros(g.shape, dtype=bool)])
    res = minimize(init, KernelParams(n=2, s=0.5), k=2,
                   schedule=AnnealSchedule(steps=40, initial_temperature=0.3, seed=4))
    assert chain_digest(res) == (
        "d5a77c084169be37652c9b346aaaf0211bfdf3cbf24d9fbf6038aaf8d61b47a8")


def test_minimize_scores_each_distinct_shape_once(monkeypatch):
    import fracdrum.anneal as anneal
    real_assemble, real_proposal = anneal.assemble_form, anneal._proposal
    assembled, shapes = [], []

    def counting_assemble(A, *args, **kwargs):
        assembled.append(A)
        return real_assemble(A, *args, **kwargs)

    def recording_proposal(A, key, move):
        shapes.append(apply_move(A, move))
        return real_proposal(A, key, move)

    monkeypatch.setattr(anneal, "assemble_form", counting_assemble)
    monkeypatch.setattr(anneal, "_proposal", recording_proposal)
    res = two_interval_chain(steps=200)
    distinct = {A.masks.tobytes() for A in [assembled[0], *shapes]}
    assert len(shapes) == 200
    assert len(assembled) == len(distinct) < 200
    assert len({A.masks.tobytes() for A in assembled}) == len(assembled)

    fresh = dirichlet_eigs(res.best, KP, 2)
    assert np.array_equal(res.best_spectrum.eigenvalues, fresh.eigenvalues)
    assert np.array_equal(res.best_spectrum.vectors, fresh.vectors)


def minimize_reference(init, kp, k, schedule):
    """The chain as a loop that builds every proposal with ``apply_move``,
    labels and lists the moves of every new shape object afresh, and lets
    each eigensolve open its own BLAS scope: the loop ``minimize`` replaced,
    kept as reference."""
    rng = np.random.default_rng(schedule.seed)
    current = init

    def score(A):
        spec = dirichlet_eigs(A, kp, k, F=assemble_form(A, kp))
        return float(spec.eigenvalues[k - 1]) + A.volume(), spec

    cur_obj, best_spec = score(current)
    scored = {np.packbits(current.masks).tobytes(): cur_obj}
    t0 = schedule.initial_temperature
    if t0 is None:
        t0 = 0.1 * abs(cur_obj)
    best, best_obj, trace = current, cur_obj, []
    for step in range(schedule.steps):
        temp = t0 * schedule.cooling ** step
        moves = enumerate_moves(current, min_cells=k)
        move = moves[int(rng.integers(len(moves)))]
        candidate = apply_move(current, move)
        key = np.packbits(candidate.masks).tobytes()
        cand_obj = scored.get(key)
        if cand_obj is None:
            cand_obj, spec = score(candidate)
            scored[key] = cand_obj
            if cand_obj < best_obj:
                best, best_obj, best_spec = candidate, cand_obj, spec
        delta = cand_obj - cur_obj
        accept = delta <= 0 or (temp > 0 and rng.random() < math.exp(-delta / temp))
        if accept:
            current, cur_obj = candidate, cand_obj
        trace.append((step, temp, cur_obj, accept, move[0]))
    return best, best_obj, best_spec, current, cur_obj, trace


def ball_masks(g, radius):
    masks = np.zeros((g.copies, *g.shape), dtype=bool)
    masks[0] = g.interior() & (np.linalg.norm(
        g.cell_centers(), axis=1).reshape(g.shape) < radius)
    return masks


@pytest.mark.parametrize("n, copies, k, steps, cooling, t0", [
    (1, 1, 1, 300, 0.99, 0.3),
    (1, 2, 2, 400, 0.995, 0.3),
    (1, 2, 1, 200, 0.5, 1e-300),      # the temperature underflows to 0
    (2, 1, 1, 80, 0.98, 0.5),
    (2, 2, 2, 80, 0.98, 0.3),
], ids=["1d", "1d-copies2", "1d-cold", "2d", "2d-copies2"])
def test_minimize_matches_the_reference_loop(n, copies, k, steps, cooling, t0):
    g = GridSpec(n=n, h=1 / 8, L=1.0 if n == 2 else 2.0, copies=copies)
    init = MultiIndicator(g, ball_masks(g, 0.4 if n == 2 else 0.6))
    kp = KernelParams(n=n, s=0.5)
    schedule = AnnealSchedule(steps=steps, cooling=cooling, initial_temperature=t0,
                              seed=steps + copies)
    res = minimize(init, kp, k=k, schedule=schedule)
    best, best_obj, best_spec, final, final_obj, trace = minimize_reference(
        init, kp, k, schedule)
    assert [(r.step, r.temperature, r.objective, r.accepted, r.kind)
            for r in res.trace] == trace
    assert {r.kind for r in res.trace} >= {"flip", "translate"}
    if copies > 1 and n == 1:
        assert "relocate" in {r.kind for r in res.trace}
    assert res.best_objective == best_obj and res.final_objective == final_obj
    assert np.array_equal(res.best.masks, best.masks)
    assert np.array_equal(res.final.masks, final.masks)
    for name in ("eigenvalues", "vectors", "residuals"):
        assert np.array_equal(getattr(res.best_spectrum, name),
                              getattr(best_spec, name))


def test_a_cached_proposal_builds_and_labels_nothing(monkeypatch):
    import fracdrum.anneal as anneal
    import fracdrum.grid as grid
    # per step, what its proposal did and the shape the chain stood on; and
    # the labellings made while a current shape's moves were listed
    steps, listing, labelled, currents = [], [False], [], []
    scored = []     # each shape passed to _score, in order
    real_enumerate, real_score = anneal.enumerate_moves, anneal._score
    real_label, real_init = grid.connected_components, MultiIndicator.__init__
    real_adopt = MultiIndicator._adopt.__func__

    def record(event):
        if steps:
            steps[-1].append(event)

    def enumerate_spy(A, min_cells=1):
        currents.append(A)
        listing[0] = True
        moves = real_enumerate(A, min_cells)
        listing[0] = False
        steps.append([])
        return moves

    def score_spy(A, *args):
        record("score")
        scored.append(A)
        return real_score(A, *args)

    def label_spy(A):
        if listing[0]:
            labelled.append(A)
        else:
            record("label")
        return real_label(A)

    def init_spy(self, *args):
        record("build")
        real_init(self, *args)

    def adopt_spy(cls, *args):
        record("build")
        return real_adopt(cls, *args)

    monkeypatch.setattr(anneal, "enumerate_moves", enumerate_spy)
    monkeypatch.setattr(anneal, "_score", score_spy)
    monkeypatch.setattr(grid, "connected_components", label_spy)
    monkeypatch.setattr(MultiIndicator, "__init__", init_spy)
    monkeypatch.setattr(MultiIndicator, "_adopt", classmethod(adopt_spy))
    res = two_interval_chain(steps=300)

    assert len(steps) == len(res.trace) == 300
    # the shapes scored and the shapes the chain stood on, by masks, up to
    # each step; the initial shape is scored before the first step
    shapes = iter(scored)
    init = next(shapes)
    seen, stood, hits, returns = {init.masks.tobytes(): init}, {}, 0, 0
    for row, proposal, A, after in zip(res.trace, steps, currents,
                                       currents[1:] + [res.final]):
        stood.setdefault(A.masks.tobytes(), A)
        known = seen.get(after.masks.tobytes())
        if "score" in proposal:
            assert proposal == ["build", "score"]
            new = next(shapes)
            seen[new.masks.tobytes()] = new
        else:
            hits += 1
            assert proposal in ([], ["build"])
        if row.accepted:
            # an accepted shape is built if and only if it was never scored,
            # and one scored earlier comes back as that object
            assert ("build" in proposal) == (known is None)
            assert known is None or after is known
            returns += known is not None
        else:
            # a rejected proposal builds a shape only to score it
            assert after is A and proposal != ["build"]
    assert hits > 100 and returns > 10
    # every shape the chain stood on is labelled once, when its moves are
    # first listed
    assert len(labelled) == len(stood)


def test_minimize_runs_every_eigensolve_on_one_blas_thread(monkeypatch):
    import fracdrum.anneal as anneal
    from fracdrum import spectra
    controls = [(get, put) for get, put, _ in spectra._openblas().values()]
    if not controls:
        pytest.skip("no OpenBLAS loaded")
    real, seen = anneal.dirichlet_eigs, []

    def spy(*args, **kwargs):
        seen.append([get() for get, _ in controls])
        if len(seen) == fail_at:
            raise RuntimeError("residual exceeds the solver contract")
        return real(*args, **kwargs)

    monkeypatch.setattr(anneal, "dirichlet_eigs", spy)
    before = [get() for get, _ in controls]
    fail_at = 0
    two_interval_chain(steps=60)
    assert len(seen) > 10 and seen == [[1] * len(controls)] * len(seen)
    assert [get() for get, _ in controls] == before
    seen.clear()
    fail_at = 5
    with pytest.raises(RuntimeError, match="solver contract"):
        two_interval_chain(steps=60)
    assert seen == [[1] * len(controls)] * 5
    assert [get() for get, _ in controls] == before


def test_a_nested_blas_scope_makes_no_thread_calls(monkeypatch):
    from fracdrum import spectra
    calls, threads = [], [4]

    def get():
        calls.append("get")
        return threads[0]

    def put(count):
        calls.append(("put", count))
        threads[0] = count

    monkeypatch.setattr(spectra, "_openblas", lambda: {"lib": (get, put, None)})
    with spectra._serial_blas():
        assert calls == ["get", ("put", 1)]
        calls.clear()
        with spectra._serial_blas():
            dirichlet_eigs(small_two_copy(), KP, 1)
        assert calls == [] and threads == [1]
    assert calls == [("put", 4)] and threads == [4]
    calls.clear()
    with pytest.raises(ZeroDivisionError):
        with spectra._serial_blas():
            with spectra._serial_blas():
                1 / 0
    assert calls == ["get", ("put", 1), ("put", 4)] and threads == [4]


def test_each_shape_is_labelled_once(monkeypatch):
    import fracdrum.grid as grid
    real, labelled = grid.connected_components, []

    def counting(A):
        labelled.append(A)
        return real(A)

    monkeypatch.setattr(grid, "connected_components", counting)
    A = small_two_copy()
    enumerate_moves(A, min_cells=1)
    enumerate_moves(A, min_cells=2)
    apply_move(A, ("translate", 0, 0, 1))
    apply_move(A, ("relocate", 0, 1))
    u = A.field(dirichlet_eigs(A, KP, 1).vectors[:, 0])
    diagnostics(A, u, KP, (0.25,))
    assert labelled == [A]

    # along a chain, no shape object is labelled twice
    labelled.clear()
    two_interval_chain(steps=100)
    assert len({id(B) for B in labelled}) == len(labelled) > 1


def test_moved_shape_gets_its_own_decomposition():
    A = small_two_copy()
    before = A.components
    B = apply_move(A, ("relocate", 0, 1))
    assert B.components is not before
    assert B.components.labels[1][2] == 0 and B.components.labels[0][2] == -1
    assert A.components is before and before.labels[0][2] == 0


def test_schedule_validation():
    with pytest.raises(ValueError):
        AnnealSchedule(steps=-1)
    with pytest.raises(ValueError):
        AnnealSchedule(cooling=0.0)
    with pytest.raises(ValueError):
        AnnealSchedule(cooling=1.0)
    with pytest.raises(ValueError):
        AnnealSchedule(initial_temperature=0.0)


@pytest.mark.parametrize("temperature", [float("nan"), float("inf")])
def test_schedule_refuses_a_non_finite_temperature(temperature):
    # a NaN temperature would reject every uphill proposal without a word
    with pytest.raises(ValueError, match="positive and finite"):
        AnnealSchedule(initial_temperature=temperature)


def test_minimize_requires_enough_cells():
    A = small_two_copy()
    with pytest.raises(ValueError):
        minimize(A, KP, k=3, schedule=AnnealSchedule(steps=1))


def ball_scan_optimum(g, kp, k=1):
    """Radius-scan oracle over centered intervals with whole-cell radii."""
    best = np.inf
    nmax = g.cells_per_side // 2 - 1
    for half_cells in range(1, nmax + 1):
        r = half_cells * g.h
        A = MultiIndicator.from_interval(g, -r, r)
        best = min(best, objective(A, kp, k))
    return best


def test_minimize_monotone_from_optimal_ball():
    g = GridSpec(n=1, h=0.125, L=2.0)
    c = min(range(1, 15), key=lambda c: objective(
        MultiIndicator.from_interval(g, -g.h * c, g.h * c), KP, 1))
    init = MultiIndicator.from_interval(g, -g.h * c, g.h * c)
    init_obj = objective(init, KP, 1)
    res = minimize(init, KP, k=1, schedule=AnnealSchedule(steps=500, seed=3))
    assert res.best_objective <= init_obj
    assert res.best_objective <= res.final_objective
    assert len(res.trace) == 500
    assert [row.step for row in res.trace] == list(range(500))
    # the starting ball is already the scan optimum, so no real gain appears
    assert res.best_objective >= ball_scan_optimum(g, KP) - 1e-9


def test_minimize_determinism_and_regression():
    g = GridSpec(n=1, h=0.25, L=2.0, copies=2)
    init = MultiIndicator.from_interval(g, -0.5, 0.5)
    sched = AnnealSchedule(steps=30, seed=7)
    a = minimize(init, KP, k=1, schedule=sched)
    b = minimize(init, KP, k=1, schedule=AnnealSchedule(steps=30, seed=7))
    assert a.best_objective == b.best_objective
    assert a.best_objective == pytest.approx(8.680964532850354, rel=1e-12)
    assert [(r.step, r.objective, r.accepted, r.kind) for r in a.trace] \
        == [(r.step, r.objective, r.accepted, r.kind) for r in b.trace]
    assert all(np.array_equal(x, y) for x, y in zip(a.best.masks, b.best.masks))


def test_minimize_survives_temperature_underflow():
    g = GridSpec(n=1, h=0.25, L=2.0)
    init = MultiIndicator.from_interval(g, -0.5, 0.5)
    sched = AnnealSchedule(steps=100, cooling=0.5, initial_temperature=1e-300)
    res = minimize(init, KP, k=1, schedule=sched)
    assert len(res.trace) == 100
    cold = [i for i, row in enumerate(res.trace) if row.temperature == 0.0]
    assert cold
    # at zero temperature only moves that do not raise the objective pass
    assert all(res.trace[i].objective <= res.trace[i - 1].objective for i in cold)


def test_minimize_builds_no_lattice_field(monkeypatch):
    import fracdrum.grid as grid
    real, built = grid.LatticeField.__init__, []

    def counting(self, *args, **kwargs):
        built.append(1)
        real(self, *args, **kwargs)

    monkeypatch.setattr(grid.LatticeField, "__init__", counting)
    g = GridSpec(n=1, h=0.25, L=2.0, copies=2)
    init = MultiIndicator.from_interval(g, -0.5, 0.5)
    minimize(init, KP, k=2, schedule=AnnealSchedule(steps=20, seed=7))
    assert built == []


def test_best_objective_reevaluates_identically():
    g = GridSpec(n=1, h=0.25, L=2.0, copies=2)
    init = MultiIndicator.from_interval(g, -0.5, 0.5)
    res = minimize(init, KP, k=1, schedule=AnnealSchedule(steps=40, seed=1))
    fresh = objective(res.best, KP, 1)
    assert fresh == pytest.approx(res.best_objective, rel=1e-10)


def test_relocate_changes_only_cross_pieces():
    g = GridSpec(n=1, h=0.125, L=1.0, copies=2)
    m = np.zeros(g.shape, dtype=bool)
    m[2:4] = True
    m[5:7] = True
    A = MultiIndicator(g, [m, np.zeros(g.shape, dtype=bool)])
    left = [2, 3]
    right = [5, 6]
    vals = np.zeros(g.shape)
    vals[[2, 3]] = 1.0
    vals[[5, 6]] = 2.0
    u = LatticeField(g, [vals, np.zeros(g.shape)])
    before = energy_decomposition(assemble_form(A, KP), u, left, right)

    moved = apply_move(A, ("relocate", 1, 1))
    vals0 = np.zeros(g.shape)
    vals0[[2, 3]] = 1.0
    vals1 = np.zeros(g.shape)
    vals1[[5, 6]] = 2.0
    u2 = LatticeField(g, [vals0, vals1])
    right2 = [g.box_size + 5, g.box_size + 6]
    after = energy_decomposition(assemble_form(moved, KP), u2, left, right2)

    for key in (("A1", "A1"), ("A2", "A2")):
        assert after.parts[key] == pytest.approx(before.parts[key], rel=1e-10)
    assert after.cross_term == 0.0
    assert before.cross_term != 0.0


def two_interval_field(sign=1.0, sep_cells=8):
    g = GridSpec(n=1, h=0.125, L=2.0)
    m = np.zeros(g.shape, dtype=bool)
    m[4:8] = True
    hi = 8 + sep_cells
    m[hi:hi + 4] = True
    A = MultiIndicator(g, [m])
    left = list(range(4, 8))
    right = list(range(hi, hi + 4))
    vals = np.zeros(g.shape)
    vals[4:8] = 1.0
    vals[hi:hi + 4] = sign
    return A, LatticeField(g, [vals]), left, right


def test_translation_gradient_signs():
    _, u, left, right = two_interval_field(sign=1.0)
    g_same = translation_gradient(u, left, right, [1], KP)
    assert g_same > 0        # moving the right group further away costs energy
    _, u2, left2, right2 = two_interval_field(sign=-1.0)
    g_opp = translation_gradient(u2, left2, right2, [1], KP)
    assert g_opp < 0         # opposite signs prefer separation

    # cross-check the sign against two explicit separations
    def cross_at(sep):
        A, uu, l, r = two_interval_field(sign=1.0, sep_cells=sep)
        return interaction_energy(assemble_form(A, KP), uu, l, r)
    assert cross_at(7) < cross_at(9)     # closer pair sits lower


def test_translation_gradient_zero_across_copies():
    g = GridSpec(n=1, h=0.125, L=1.0, copies=2)
    v0 = np.zeros(g.shape)
    v0[2:4] = 1.0
    v1 = np.zeros(g.shape)
    v1[5:7] = 1.0
    u = LatticeField(g, [v0, v1])
    out = translation_gradient(u, [2, 3], [g.box_size + 5, g.box_size + 6], [1], KP)
    assert out == 0.0


def test_translation_gradient_validation():
    _, u, left, right = two_interval_field()
    with pytest.raises(ValueError):
        translation_gradient(u, left, right, [2], KP)
    with pytest.raises(ValueError):
        translation_gradient(u, left, right, [1, 0], KP)
    # entries that are not integers are refused, not truncated
    for direction in ([1.0], [0.7], [1.7], [True], np.array([1.0])):
        with pytest.raises(ValueError, match="lattice unit vector of integers"):
            translation_gradient(u, left, right, direction, KP)
    g2 = GridSpec(n=2, h=0.125, L=1.0)
    vals2 = np.zeros(g2.shape)
    vals2[3:5, 3:5] = 1.0
    vals2[10:12, 3:5] = 1.0
    u2d, kp2 = LatticeField(g2, [vals2]), KernelParams(n=2, s=0.5)
    left2d, right2d = [51, 52, 67, 68], [163, 164, 179, 180]
    assert translation_gradient(u2d, left2d, right2d, np.array([1, 0]), kp2) \
        == translation_gradient(u2d, left2d, right2d, (1, 0), kp2)
    for direction in ((1.7, 0), (1.0, 0), (0, -1.0)):
        with pytest.raises(ValueError, match="lattice unit vector of integers"):
            translation_gradient(u2d, left2d, right2d, direction, kp2)
    g = GridSpec(n=1, h=0.125, L=2.0)
    edge_right = list(range(27, 31))   # touches interior edge
    m = np.zeros(g.shape, dtype=bool)
    m[4:8] = True
    m[27:31] = True
    vals = np.where(m, 1.0, 0.0)
    u2 = LatticeField(g, [vals])
    with pytest.raises(ValueError):
        translation_gradient(u2, list(range(4, 8)), edge_right, [1], KP)
    adjacent = list(range(8, 12))      # collides when shifted left
    m3 = np.zeros(g.shape, dtype=bool)
    m3[4:12] = True
    u3 = LatticeField(g, [np.where(m3, 1.0, 0.0)])
    with pytest.raises(ValueError):
        translation_gradient(u3, list(range(4, 8)), adjacent, [1], KP)


def test_diagnostics_on_interval_ball():
    g = GridSpec(n=1, h=1 / 16, L=2.0)
    A = MultiIndicator.from_interval(g, -1.0, 1.0)
    res = dirichlet_eigs(A, KP, 1)
    radii = (4 * g.h, 8 * g.h, 16 * g.h)
    u = A.field(res.vectors[:, 0])
    rep = diagnostics(A, u, KP, radii)
    assert rep.component_signs == [1]
    assert rep.adjacency_violations == 0
    assert set(rep.growth_ratios) == {0.25, 0.5, 1.0}
    assert all(v > 0 for v in rep.growth_ratios.values())
    assert all(v > 0 for v in rep.positive_density.values())
    # the audit does not depend on the field's scale
    for c in (1e-13, 1e3):
        scaled = LatticeField(g, [c * u.values[0]])
        assert component_signs(A.components, scaled) == [1]
        rep_c = diagnostics(A, scaled, KP, radii)
        assert rep_c.component_signs == [1]
        for r, v in rep.growth_ratios.items():
            assert rep_c.growth_ratios[r] == pytest.approx(c * v, rel=1e-12)


def diagnostics_by_radius_loop(A, u, kp, radii):
    """Reference audit, one radius at a time: every radius recomputes each
    boundary cell's distances and builds its three measurements as lists.
    Only boundary cells of components on which the field does not vanish
    are measured."""
    grid = A.grid
    scale = float(np.abs(u.values).max())
    thr = 1e-9 * scale if scale > 0 else 1e-9
    violations = 0
    for axis in range(1, u.values.ndim):
        v = u.values.swapaxes(1, axis)
        a, b = v[:, :-1], v[:, 1:]
        violations += int(np.sum((a > thr) & (b < -thr)))
        violations += int(np.sum((a < -thr) & (b > thr)))
    centers = grid.cell_centers()
    signs = component_signs(A.components, u)
    boundary = [i for i in np.flatnonzero(A.masks & _open_face(A.masks))
                if signs[A.components.labels.ravel()[i]] != 0]
    if not boundary:
        raise ValueError("no boundary cell lies in a component that carries "
                         "the field")
    copies, flats = np.divmod(np.array(boundary), grid.box_size)
    growth, pos_density, zero_density = {}, {}, {}
    for r in radii:
        sup_ratios, pos_r, zero_r = [], [], []
        for c, idx in zip(copies, flats):
            ball = np.linalg.norm(centers - centers[idx], axis=1) <= r + 1e-12
            vals = u.values[c].ravel()[ball]
            sup_ratios.append(float(np.abs(vals).max()) / r ** kp.s)
            pos_r.append(np.sum(vals > thr) * grid.cell_volume / r ** grid.n)
            zero_r.append(np.sum(np.abs(vals) <= thr) * grid.cell_volume
                          / r ** grid.n)
        growth[float(r)] = float(np.min(sup_ratios))
        pos_density[float(r)] = float(np.mean(pos_r))
        zero_density[float(r)] = float(np.mean(zero_r))
    return {"adjacency_violations": violations, "growth_ratios": growth,
            "positive_density": pos_density, "zero_density": zero_density}


@pytest.mark.parametrize("n, copies", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_diagnostics_matches_per_radius_reference(n, copies):
    rng = np.random.default_rng([27, n, copies])
    for trial in range(60):
        h = float(rng.choice([1 / 8, 1 / 16] if n == 1 else [1 / 4, 1 / 8]))
        g = GridSpec(n=n, h=h, L=1.0, copies=copies)
        masks = g.interior() & (rng.random((copies, *g.shape))
                                < rng.uniform(0.2, 0.9))
        masks[(0, *[1] * n)] = True         # never an empty shape
        A = MultiIndicator(g, masks)
        # signed values, some exactly zero and some at the zero threshold,
        # inside and outside the shape, zero on the walls; now and then the
        # zero field
        vals = rng.normal(size=masks.shape) * (rng.random(masks.shape) < 0.7)
        vals[rng.random(masks.shape) < 0.1] = 1e-9 * np.abs(vals).max()
        vals *= g.interior() & (trial % 15 != 0)
        u = LatticeField(g, list(vals))
        kp = KernelParams(n=n, s=float(rng.choice([0.2, 0.5, 0.9])))
        radii = [4 * h, 8 * h, 16 * h] if trial % 2 else sorted(
            rng.uniform(0.5, 6.0, size=int(rng.integers(1, 4))) * h)
        if not any(component_signs(A.components, u)):
            # the zero field: no component carries it, so nothing is measured
            for audit in (diagnostics, diagnostics_by_radius_loop):
                with pytest.raises(ValueError, match="carries the field"):
                    audit(A, u, kp, radii)
            continue
        want = diagnostics_by_radius_loop(A, u, kp, radii)
        rep = diagnostics(A, u, kp, radii)
        assert {key: getattr(rep, key) for key in want} == want


@pytest.mark.parametrize("n", [1, 2])
def test_diagnostics_skips_a_component_where_the_field_vanishes(n):
    # an eigenfield of the left piece alone, on a shape of two pieces: the
    # right piece carries nothing, and its boundary is not measured
    g = GridSpec(n=n, h=1 / 16 if n == 1 else 1 / 8, L=1.0)
    kp = KernelParams(n=n, s=0.5)
    centre = np.array([-0.4] + [0.0] * (n - 1))
    x = np.linalg.norm(g.cell_centers() - centre, axis=1).reshape(g.shape)
    left = g.interior() & (x < 0.35)
    right = np.zeros(g.shape, dtype=bool)
    right[(slice(-6, -2),) * n] = True
    alone = MultiIndicator(g, [left])
    u = alone.field(dirichlet_eigs(alone, kp, 1).vectors[:, 0])
    both = MultiIndicator(g, [left | right])
    assert both.components.count == 2
    rep = diagnostics(both, u, kp, (2 * g.h, 4 * g.h))
    want = diagnostics(alone, u, kp, (2 * g.h, 4 * g.h))
    assert rep.component_signs == [1, 0] and want.component_signs == [1]
    for key in ("adjacency_violations", "growth_ratios", "positive_density",
                "zero_density"):
        assert getattr(rep, key) == getattr(want, key)
    assert all(v > 0 for v in rep.growth_ratios.values())


def test_scoring_failure_propagates_out_of_minimize(monkeypatch, tmp_path):
    import json
    import fracdrum.anneal as anneal
    from fracdrum import cli
    real, calls = anneal.dirichlet_eigs, []

    def breaks_on_third_call(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise RuntimeError("residual exceeds the solver contract")
        return real(*args, **kwargs)

    monkeypatch.setattr(anneal, "dirichlet_eigs", breaks_on_third_call)
    g = GridSpec(n=1, h=0.25, L=2.0, copies=2)
    init = MultiIndicator.from_interval(g, -0.5, 0.5)
    with pytest.raises(RuntimeError, match="solver contract"):
        minimize(init, KP, k=1, schedule=AnnealSchedule(steps=10, seed=7))
    assert len(calls) == 3

    calls.clear()
    doc = {"n": 1, "s": 0.5, "h": 0.25, "L": 2.0, "copies": 2, "k": 1,
           "steps": 10, "seed": 7,
           "init": {"kind": "intervals", "items": [[0, -0.5, 0.5]]}}
    (tmp_path / "config.json").write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli.run("optimize-shape", str(tmp_path / "config.json"), str(out)) == 3
    record = json.loads((out / "error.json").read_text())
    assert record["type"] == "RuntimeError" and "solver contract" in record["error"]
    assert not (out / "summary.json").exists()


def reference_moves(A, min_cells):
    """Moves from one gather per component and direction: the enumeration
    that the array-level one replaced, kept as reference."""
    masks = A.masks
    interior = A.grid.interior()
    flips = ~masks & interior & _open_face(~masks)     # touches the shape
    if A.cell_count() > min_cells:
        flips |= masks & _open_face(masks)
    moves = [("flip", int(i)) for i in np.flatnonzero(flips)]
    decomp = A.components
    comp_coords = [np.unravel_index(ids, masks.shape) for ids in decomp.cells]
    for comp_id, coords in enumerate(comp_coords):
        for axis in range(1, masks.ndim):
            for sign in (-1, 1):
                shifted = list(coords)
                shifted[axis] = coords[axis] + sign
                label = decomp.labels[tuple(shifted)]
                if (interior[tuple(shifted[1:])]
                        & ((label < 0) | (label == comp_id))).all():
                    moves.append(("translate", comp_id, axis - 1, sign))
    for comp_id, (c, *coords) in enumerate(comp_coords):
        free = ~masks[(slice(None), *coords)].any(axis=1)
        free[c[0]] = False
        moves.extend(("relocate", comp_id, int(t)) for t in np.flatnonzero(free))
    return moves


def reference_apply(A, move):
    """The shape a legal move makes, cell by cell in coordinates."""
    masks = A.masks.copy()
    if move[0] == "flip":
        masks.ravel()[move[1]] ^= True
        return masks
    coords = list(np.unravel_index(A.components.cells[move[1]], masks.shape))
    masks[tuple(coords)] = False
    if move[0] == "translate":
        coords[move[2] + 1] += move[3]
    else:
        coords[0] = np.full_like(coords[0], move[2])
    masks[tuple(coords)] = True
    return masks


@pytest.mark.parametrize("n,copies", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)])
def test_move_enumeration_matches_the_per_component_reference(n, copies):
    g = GridSpec(n=n, h=1 / 16 if n == 1 else 1 / 4, L=1.0, copies=copies)
    rng = np.random.default_rng(7 * n + copies)
    core = (slice(None), *(slice(1, -1),) * n)
    kinds = set()
    for trial in range(30):
        masks = np.zeros((copies, *g.shape), dtype=bool)
        # sparse shapes have gaps of one cell or more between components,
        # dense ones have components that touch the box or each other
        masks[core] = rng.random(masks[core].shape) < rng.uniform(0.05, 0.7)
        A = MultiIndicator(g, masks)
        if A.is_empty():
            continue
        for min_cells in (1, A.cell_count()):
            moves = enumerate_moves(A, min_cells=min_cells)
            assert moves == reference_moves(A, min_cells)
            assert all(type(x) is int for move in moves for x in move[1:])
            for move in moves:
                assert np.array_equal(apply_move(A, move).masks,
                                      reference_apply(A, move))
                kinds.add(move[0])
    assert kinds == ({"flip", "translate", "relocate"} if copies > 1
                     else {"flip", "translate"})


def test_apply_move_refuses_a_translation_off_the_lattice_steps():
    A = small_two_copy()
    for move in (("translate", 0, 1, 1), ("translate", 0, -1, 1),
                 ("translate", 0, 0, 2), ("translate", 0, 0, 0)):
        with pytest.raises(ValueError, match="one cell along an axis"):
            apply_move(A, move)

"""Bit-for-bit pin of engine, analysis and simulator results on generated models.

Each digest hashes the ``float.hex`` of every number ``run``,
``fixed_point_precisions`` and ``precision_bounds`` return, in canonical
edge and variable order, plus the raw bytes of the mean-update system.
The expected values were recorded before the engine moved from per-edge
dict walks to the compiled edge tables; any change to the arithmetic or
its order shows up here as a different digest.

The simulate digests cover both schedules: state, beliefs, tick count,
status, message count and the bytes of the event log.  They were recorded
while every agent still evaluated its messages with Python floats from
per-agent inboxes.
"""
import hashlib

import numpy as np
import pytest

from gbpkit import (
    Factor,
    LinearGaussianModel,
    Schedule,
    build_factor_graph,
    build_mean_system,
    fixed_point_precisions,
    generate_model,
    precision_bounds,
    run,
    simulate,
    sparse_gmrf,
    with_observations,
)
from gbpkit.generate import KINDS


def _digest(kind: str, seed: int) -> str:
    model = generate_model(kind, 200, seed)
    graph = build_factor_graph(model)
    h = hashlib.sha256()

    def floats(values):
        for value in values:
            h.update(float.hex(value).encode())
            h.update(b",")
        h.update(b";")

    result = run(graph, model)
    floats(result.state.precisions[e] for e in graph.fv_edges)
    floats(result.state.means[e] for e in graph.fv_edges)
    floats(result.beliefs.variances[v] for v in graph.variable_ids)
    floats(result.beliefs.means[v] for v in graph.variable_ids)
    h.update(f"{result.state.iteration}/{result.beliefs.iteration}/{result.status};".encode())

    fixed = fixed_point_precisions(graph, model)
    floats(fixed.factor_to_variable[e] for e in graph.fv_edges)
    floats(fixed.variable_to_factor[e] for e in graph.vf_edges)
    h.update(f"{fixed.iterations};".encode())

    bounds = precision_bounds(graph, model)
    floats(bounds.lower[e] for e in graph.fv_edges)
    floats(bounds.upper[e] for e in graph.fv_edges)

    system = build_mean_system(graph, model, fixed)
    h.update(system.matrix.tobytes())
    h.update(system.offset.tobytes())
    return h.hexdigest()


EXPECTED = {
    ("tree", 1): "cc98f07c3ab4ce16b125d9c2ce4917558e3c3b2230b9d5ca635a2d8791876e2c",
    ("tree", 2): "103fcca8b0d039029f0440550beff37b7b9bd4567ed2a18a6fa34b4040935771",
    ("tree", 3): "8f5c6fd59995bf842515ef2acdf2dd6f8cad847ea50849a3602f1950465902cd",
    ("single-loop-plus-forest", 1): "f18c9a9af34e5e68578d3121de3de13bf3267f4014658b09557e8451a1a307c7",
    ("single-loop-plus-forest", 2): "f71a377280215ca5c279ba777e1a6408c4ebf249cb4f23e63afb50644a49c229",
    ("single-loop-plus-forest", 3): "5445d8e2bcd20afcabef4926303cefabb4e2323e5ed2700c4372064ff85e6ed7",
    ("random-loopy", 1): "d1cf046a25944b1fcd00a5a4a001ce36bc3d6959a2f82490473cdb67fa350278",
    ("random-loopy", 2): "91748fd1d7d7cde436d9cfd985a6482461da9632a9186cdac9322412becda429",
    ("random-loopy", 3): "4ab10cd6f54f2378c51c74ae0610fe511376c96e9d18484228299b3c94e3c725",
}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_results_match_recorded_digest(kind, seed):
    assert _digest(kind, seed) == EXPECTED[(kind, seed)]


# Recorded while sparse_gmrf still walked every scope pair in Python.
GMRF_EXPECTED = {
    ("tree", 1): "3e0ebbe54901ca03bf40122f2ccf5c3647050ab62f0693f856cf29097816f6a6",
    ("tree", 2): "09845e1a5ed4f5431beae3df694c7657c03806c505e632e7fc6884923331fccc",
    ("tree", 3): "fc0bc938f31ff30ab5f4a87ed9da72c97ff032e268a7be2fd58ce97336e9cd66",
    ("single-loop-plus-forest", 1): "a913f788373c94fa174b6dc695f75be0b7ffe86110bb886d60f4734f08cbe514",
    ("single-loop-plus-forest", 2): "36611ef78efd8e2aadbe8f15c19d11b9d536f0363b40240044b11d7b60026563",
    ("single-loop-plus-forest", 3): "4c6f82287676a22721123d6d8273e501fe2ad451a6300b1e5e76665d6171a863",
    ("random-loopy", 1): "d971ce1781d1cc836b90409e9b40eeb8ea6d2c319e6681c3a1c77a3facea81fd",
    ("random-loopy", 2): "c55a425eac2401adb48421993bda85ad2c67082f5503e96a7a66bf03e08a2698",
    ("random-loopy", 3): "e8b0264104d78c62ae7570f41ed62f57f86a526935828cd21f7d555517b323fb",
}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_information_form_matches_recorded_digest(kind, seed):
    """J's CSR arrays (indices as int64) and h, byte for byte."""
    gmrf = sparse_gmrf(generate_model(kind, 200, seed))
    info = gmrf.information_matrix
    h = hashlib.sha256()
    for array in (info.data, info.indices.astype(np.int64), info.indptr.astype(np.int64),
                  gmrf.potential):
        h.update(array.tobytes())
    assert h.hexdigest() == GMRF_EXPECTED[(kind, seed)]


def _overflow_model():
    """A loopy model with more factors than variables: the extra factors
    are hosted by the agent of their lowest scope variable."""
    model = generate_model("random-loopy", 40, 5)
    extra = tuple(
        Factor(f"g{k}", {model.variables[k].id: 0.5, model.variables[k - 7].id: -0.25}, 1.0, 1.0)
        for k in range(len(model.variables) - 1, 10, -4)
    )
    return LinearGaussianModel(model.variables, model.factors + extra)


def _simulate_digest(model, schedule, log_path) -> str:
    graph = build_factor_graph(model)
    sim = simulate(model, schedule, log_path=log_path)
    h = hashlib.sha256()
    for values in (
        (sim.state.precisions[e] for e in graph.fv_edges),
        (sim.state.means[e] for e in graph.fv_edges),
        (sim.beliefs.variances[v] for v in graph.variable_ids),
        (sim.beliefs.means[v] for v in graph.variable_ids),
    ):
        h.update(",".join(map(float.hex, values)).encode() + b";")
    h.update(f"{sim.state.iteration}/{sim.beliefs.iteration}/{sim.ticks}/{sim.status}/"
             f"{sim.messages_sent};".encode())
    h.update(log_path.read_bytes())
    return h.hexdigest()


def _simulate_model(kind, seed):
    if kind == "overflow":
        return _overflow_model()
    if kind == "divergent":  # the synchronous means grow without bound
        return generate_model("random-loopy", 6, 113, coeff_range=(-6.0, 6.0))
    if kind == "guard":  # means beyond DIVERGENCE_GUARD trip it on every schedule
        model = generate_model("tree", 40, 1)
        return with_observations(model, [f.obs * 1e11 for f in model.factors])
    return generate_model(kind, 40, seed)


SIMULATE_CASES = [(kind, seed) for kind in KINDS for seed in (1, 2)]
SIMULATE_CASES += [("overflow", 0), ("divergent", 0), ("guard", 0)]
SCHEDULES = {
    "synchronous": Schedule.synchronous(),
    "random-sequential-3": Schedule.random_sequential(3),
    "random-sequential-11": Schedule.random_sequential(11),
}

SIMULATE_EXPECTED = {
    ('tree', 1, 'random-sequential-11'):
        'a9573dde895762d2e035bd541b42d09616278074b9f926c8a44d86ae2fa95e8b',
    ('tree', 1, 'random-sequential-3'):
        '743c1b72077950010cd711cc67603c9066126ad097ed700de5aad30f22bd72f5',
    ('tree', 1, 'synchronous'):
        'b0b2cce4a20554a82f2b9f7062937cee6ddd32bbc03d05480489c219621ce493',
    ('tree', 2, 'random-sequential-11'):
        'fd7567c4917f76d05043fb32afb4f253ca05160d78d37ae1afa7ba42ea1b1262',
    ('tree', 2, 'random-sequential-3'):
        '7534884fc60d719cd849a47b59ae62129343485c5982da67094a82c86e9f3b79',
    ('tree', 2, 'synchronous'):
        '53b84aee9def955e218da2624635eee22bb40fcfd213190bb52b7d2d5274e183',
    ('single-loop-plus-forest', 1, 'random-sequential-11'):
        '00c9332f577548a6d9159b180e938eecb5a5dc1f188ad54bb1598fc235f6af0b',
    ('single-loop-plus-forest', 1, 'random-sequential-3'):
        'c181ad9a1c8d61276cc8d085c4165aceab353e9111d336209b3a7c303b9ced74',
    ('single-loop-plus-forest', 1, 'synchronous'):
        '3e61ff34ba8d9aec2cecbc912ca74764049439915c44dcb310e529a854a3e734',
    ('single-loop-plus-forest', 2, 'random-sequential-11'):
        '34afc35f3f71c2ce47c819e9ad5fd15e18c174ead739c328a151fcc17bd67982',
    ('single-loop-plus-forest', 2, 'random-sequential-3'):
        '26b543018aa0f6a8dd288534d730332b110cf4a0cbca4916fe1cedb75b681d4b',
    ('single-loop-plus-forest', 2, 'synchronous'):
        '5ae79bb2b55b219b5925f107ff4b7c3ac6375765b5c352e49a47fe2da3b32edb',
    ('random-loopy', 1, 'random-sequential-11'):
        '65b2b057f153d521c7705d92e9ec4e3433fc4a4774db6c5fc9b9605a3cc210ca',
    ('random-loopy', 1, 'random-sequential-3'):
        '0bff08e59e1fdc723b83048a1c81cd16db57e4082fe100e69d43d6ba7c19a165',
    ('random-loopy', 1, 'synchronous'):
        'b31191a1ab683efa2837d50ed5122733ab97b9a899bac88abbc750417a1bcf00',
    ('random-loopy', 2, 'random-sequential-11'):
        '2950e2b977d2c0b433f4f8fb3e3fc217714777f810a71852e1f87ba0fddde73e',
    ('random-loopy', 2, 'random-sequential-3'):
        'f24be8df282ff0701243bafd337f7b30de08e03632bf6d576cdfb43dfa377e99',
    ('random-loopy', 2, 'synchronous'):
        '8a5309974d98495a013f67f8759782f1e2ace13dd6b851f0c8e6af920578ffa6',
    ('overflow', 0, 'random-sequential-11'):
        'b4f732a014013745598d56a4be306b39d4992c3d0b437340d104e2dd0003c2f3',
    ('overflow', 0, 'random-sequential-3'):
        '2f379b1835c36c0ecdc7fa7c7c90c64bf1616c2a44af17044a7292a55cae1f1e',
    ('overflow', 0, 'synchronous'):
        'a4305cb767eb20c56740a737ccdf914adf6c6e337e12573d4dbfae5d2a295604',
    ('divergent', 0, 'random-sequential-11'):
        '53458600a8ebe4a7984529df2aeeb73828c9e2d57529c741ae20b2491223fec6',
    ('divergent', 0, 'random-sequential-3'):
        '0f62dedbd7263b64f37cf2b8e4c56416d726ced6d01e0fa8f851e6c7285faa49',
    ('divergent', 0, 'synchronous'):
        '992b806eaa986243ec29e03886fe1f1def192fc00a019d3a2aea1ad7f30ef669',
    ('guard', 0, 'random-sequential-11'):
        'fe566936c8659f8aad427abe712f34ee35384183c3787fa63f5137d88384e244',
    ('guard', 0, 'random-sequential-3'):
        'ba11f24fad92c628ac9c23762abcb77c76bedd0a35e8cab6702f37223dcea428',
    ('guard', 0, 'synchronous'):
        'acb8f5b2eb791abae7298f817e5081d9724c296d1144189ede99a8f811c37525',
}


@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
@pytest.mark.parametrize("kind,seed", SIMULATE_CASES)
def test_simulate_matches_recorded_digest(kind, seed, schedule, tmp_path):
    model = _simulate_model(kind, seed)
    digest = _simulate_digest(model, SCHEDULES[schedule], tmp_path / "traffic.csv")
    assert digest == SIMULATE_EXPECTED[(kind, seed, schedule)]

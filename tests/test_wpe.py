import dataclasses
import tracemalloc

import numpy as np
import pytest

from conftest import make_reverberant_pair
from specmap.errors import NumericError
from specmap.metrics import log_spectral_distortion
from specmap.stft import StftConfig, log_magnitude, stft
from specmap.wpe import (
    WpeConfig,
    WpeResult,
    _bin_blocks,
    _normal_equations,
    _prediction,
    _smoothed_power,
    _tap_stack,
    solve_hermitian,
    solve_normal_equations,
    wpe_dereverberate,
)


def gaussian_elimination(matrix, rhs):
    """Independent dense solver used as the oracle for solve_hermitian."""
    n = len(rhs)
    aug = np.concatenate([matrix.astype(complex), rhs.reshape(-1, 1)], axis=1)
    for col in range(n):
        pivot = col + np.argmax(np.abs(aug[col:, col]))
        aug[[col, pivot]] = aug[[pivot, col]]
        aug[col] = aug[col] / aug[col, col]
        for row in range(n):
            if row != col:
                aug[row] = aug[row] - aug[row, col] * aug[col]
    return aug[:, -1]


def test_solve_identity():
    g = solve_hermitian(np.eye(3), np.array([1.0, 0.0, 0.0]), delta=0.0)
    assert np.allclose(g, [1.0, 0.0, 0.0], atol=1e-12)


def test_solve_matches_elimination_oracle():
    rng = np.random.default_rng(0)
    for trial in range(20):
        k = rng.integers(2, 9)
        base = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        matrix = base @ base.conj().T + np.eye(k)  # Hermitian, well conditioned
        rhs = rng.normal(size=k) + 1j * rng.normal(size=k)
        mine = solve_hermitian(matrix, rhs, delta=0.0)
        oracle = gaussian_elimination(matrix, rhs)
        assert np.max(np.abs(mine - oracle)) < 1e-8


def test_solve_zero_system_with_delta():
    g = solve_hermitian(np.zeros((4, 4)), np.zeros(4), delta=1e-3)
    assert np.allclose(g, 0.0)


def test_solve_rejects_bad_inputs():
    with pytest.raises(NumericError):
        solve_hermitian(np.array([[np.inf, 0], [0, 1]]), np.zeros(2))
    skewed = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(NumericError):
        solve_hermitian(skewed, np.ones(2))
    # singular and inconsistent: no solution within tolerance
    with pytest.raises(NumericError):
        solve_hermitian(np.zeros((2, 2)), np.array([1.0, 0.0]), delta=0.0)


def test_zero_input_passes_through():
    result = wpe_dereverberate(np.zeros((40, 5), dtype=complex), WpeConfig(taps=3, delay=2))
    assert np.all(result.enhanced == 0)
    assert np.all(result.filters == 0)
    assert np.all(result.variance == pytest.approx(1e-10))


def test_short_input_passes_through():
    rng = np.random.default_rng(1)
    data = rng.normal(size=(12, 4)) + 1j * rng.normal(size=(12, 4))
    result = wpe_dereverberate(data, WpeConfig(taps=10, delay=3))
    assert np.array_equal(result.enhanced, data)
    assert result.objective.shape == (0, 4)


def test_recovers_exact_delayed_feedback():
    # y[t] = s[t] + 0.8 * y[t-3] per bin; taps=1, delay=3 must find g = 0.8
    rng = np.random.default_rng(2)
    frames, bins = 400, 4
    source = (rng.normal(size=(frames, bins)) + 1j * rng.normal(size=(frames, bins)))
    source *= rng.random((frames, bins)) < 0.2
    observed = source.copy()
    for t in range(3, frames):
        observed[t] += 0.8 * observed[t - 3]
    result = wpe_dereverberate(
        observed, WpeConfig(taps=1, delay=3, iterations=6, variance_context=0, delta=0.0)
    )
    assert np.allclose(result.filters, 0.8, atol=1e-9)
    assert np.allclose(result.enhanced[3:], source[3:], atol=1e-8)


def test_shape_preserved_and_early_frames_copied():
    _, reverberant, _ = make_reverberant_pair(0)
    spec = stft(reverberant, StftConfig())
    config = WpeConfig()
    result = wpe_dereverberate(spec, config)
    assert result.enhanced.data.shape == spec.data.shape
    first_valid = config.delay + config.taps - 1
    assert np.array_equal(result.enhanced.data[:first_valid], spec.data[:first_valid])
    assert np.all(result.variance >= config.variance_floor)


def test_bin_permutation_equivariance():
    rng = np.random.default_rng(3)
    data = rng.normal(size=(60, 7)) + 1j * rng.normal(size=(60, 7))
    permutation = rng.permutation(7)
    config = WpeConfig(taps=4, delay=2, iterations=2)
    direct = wpe_dereverberate(data, config).enhanced
    permuted = wpe_dereverberate(data[:, permutation], config).enhanced
    assert np.allclose(direct[:, permutation], permuted, atol=0, rtol=0)


def test_scale_covariance():
    rng = np.random.default_rng(4)
    data = rng.normal(size=(80, 6)) + 1j * rng.normal(size=(80, 6))
    scale = 3.0 - 4.0j
    config = WpeConfig(taps=4, delay=2, iterations=3, variance_floor=1e-10)
    scaled_config = WpeConfig(
        taps=4, delay=2, iterations=3, variance_floor=1e-10 * abs(scale) ** 2
    )
    base = wpe_dereverberate(data, config)
    scaled = wpe_dereverberate(scale * data, scaled_config)
    ref = scale * base.enhanced
    assert np.max(np.abs(scaled.enhanced - ref)) <= 1e-8 * np.max(np.abs(ref))
    assert np.allclose(scaled.filters, base.filters, atol=1e-8)


def test_objective_monotone_raw_variance():
    # variance_context=0 is the formulation with the alternating-minimization
    # guarantee; check it both with auto delta and with delta=0.
    _, reverberant, _ = make_reverberant_pair(1)
    spec = stft(reverberant, StftConfig())
    for delta in (None, 0.0):
        result = wpe_dereverberate(
            spec, WpeConfig(iterations=3, variance_context=0, delta=delta)
        )
        diffs = np.diff(result.objective, axis=0)
        assert np.all(diffs <= 1e-9)


def test_smoothed_variance_improves_spectra_more_than_raw():
    # The smoothed-variance default trades the monotone-objective guarantee
    # for less over-suppression; it should beat the raw rule on LSD.
    clean, reverberant, _ = make_reverberant_pair(2)
    config = StftConfig()
    clean_log = log_magnitude(stft(clean, config))
    spec = stft(reverberant, config)
    smoothed = wpe_dereverberate(spec, WpeConfig())
    raw = wpe_dereverberate(spec, WpeConfig(variance_context=0))
    lsd_smoothed = log_spectral_distortion(log_magnitude(smoothed.enhanced), clean_log)
    lsd_raw = log_spectral_distortion(log_magnitude(raw.enhanced), clean_log)
    assert lsd_smoothed < lsd_raw


def test_anechoic_changes_far_less_than_reverberant():
    clean, reverberant, _ = make_reverberant_pair(3)
    config = StftConfig()
    clean_spec = stft(clean, config)
    reverb_spec = stft(reverberant, config)
    clean_change = np.linalg.norm(
        wpe_dereverberate(clean_spec).enhanced.data - clean_spec.data
    ) / np.linalg.norm(clean_spec.data)
    reverb_change = np.linalg.norm(
        wpe_dereverberate(reverb_spec).enhanced.data - reverb_spec.data
    ) / np.linalg.norm(reverb_spec.data)
    assert clean_change < 0.05
    assert clean_change < 0.5 * reverb_change


def test_reverberant_direct_to_late_ratio_improves():
    from specmap.audio import Waveform
    from specmap.corpus import convolve
    from specmap.stft import istft

    clean, reverberant, rir = make_reverberant_pair(4)
    config = StftConfig()
    result = wpe_dereverberate(stft(reverberant, config))
    enhanced = istft(result.enhanced)

    # Oracle from the known RIR: early part = clean * rir[:50 ms].
    split = int(0.050 * 16000)
    early_rir = Waveform(rir.samples[:split], 16000)
    early = convolve(clean, early_rir).samples[: len(clean)]

    def direct_to_late(x):
        n = min(len(x), len(early))
        late = x[:n] - early[:n]
        return np.sum(early[:n] ** 2) / np.sum(late ** 2)

    assert direct_to_late(enhanced.samples) > direct_to_late(reverberant.samples)


def test_lsd_improves_on_reverberant_speech():
    clean, reverberant, _ = make_reverberant_pair(5)
    config = StftConfig()
    clean_log = log_magnitude(stft(clean, config))
    reverb_spec = stft(reverberant, config)
    result = wpe_dereverberate(reverb_spec)
    before = log_spectral_distortion(log_magnitude(reverb_spec), clean_log)
    after = log_spectral_distortion(log_magnitude(result.enhanced), clean_log)
    assert after < before


def test_idempotence_tendency():
    _, reverberant, _ = make_reverberant_pair(6)
    spec = stft(reverberant, StftConfig())
    once = wpe_dereverberate(spec).enhanced
    twice = wpe_dereverberate(once).enhanced
    first_change = np.linalg.norm(once.data - spec.data)
    second_change = np.linalg.norm(twice.data - once.data)
    assert second_change < first_change


def test_solver_failure_falls_back_to_zero_filter(monkeypatch):
    import specmap.wpe as wpe_module

    original = wpe_module._lapack_solve

    def flaky(matrices, rhs):
        coefficients = original(matrices, rhs)
        if flaky.calls == 0:
            coefficients[2] = np.nan
        flaky.calls += 1
        return coefficients

    flaky.calls = 0
    monkeypatch.setattr(wpe_module, "_lapack_solve", flaky)
    rng = np.random.default_rng(8)
    data = rng.normal(size=(50, 4)) + 1j * rng.normal(size=(50, 4))
    result = wpe_module.wpe_dereverberate(data, WpeConfig(taps=3, delay=2, iterations=1))
    assert result.fallback_bins == (2,)
    assert np.all(result.filters[2] == 0)


def gathered_smoothed_power(signal, half_width):
    """The moving average by fancy-indexed sums, as _smoothed_power took it before."""
    power = np.abs(signal) ** 2
    if half_width == 0:
        return power
    n_frames = power.shape[0]
    padded = np.zeros((n_frames + 1, power.shape[1]))
    np.cumsum(power, axis=0, out=padded[1:])
    lo = np.maximum(np.arange(n_frames) - half_width, 0)
    hi = np.minimum(np.arange(n_frames) + half_width + 1, n_frames)
    return (padded[hi] - padded[lo]) / (hi - lo)[:, None]


@pytest.mark.parametrize("half_width", [0, 1, 2, 6, 59, 100])
@pytest.mark.parametrize("n_frames", [1, 2, 3, 7, 60])
def test_smoothed_power_matches_the_gathered_average_bitwise(n_frames, half_width):
    rng = np.random.default_rng(100 * n_frames + half_width)
    data = rng.normal(size=(n_frames, 9)) + 1j * rng.normal(size=(n_frames, 9))
    for signal in (data, data[:, 2:7], np.asfortranarray(data)):
        expected = gathered_smoothed_power(signal, half_width)
        assert np.array_equal(_smoothed_power(signal, half_width), expected)


def per_bin_reference(data, config):
    """WPE with one np.linalg.solve per bin and iteration, the loop the batched solve replaced.

    The normal equations and the prediction come from the helpers that
    wpe_dereverberate uses, so that only the solve differs.
    """
    n_bins, taps = data.shape[1], config.taps
    first_valid = config.delay + taps - 1
    stack = _tap_stack(data, taps, config.delay)
    weighted = np.empty((n_bins, 2 * taps, stack.shape[2]))
    targets = data[first_valid:]
    enhanced = data.copy()
    filters = np.zeros((n_bins, taps), dtype=complex)
    delta = None
    for _ in range(config.iterations):
        variance = np.maximum(
            _smoothed_power(enhanced, config.variance_context), config.variance_floor
        )
        lam = variance[first_valid:]
        normal, rhs = _normal_equations(stack, 1.0 / lam.T, weighted)
        if delta is None:
            if config.delta is not None:
                delta = np.full(n_bins, float(config.delta))
            else:
                delta = 1e-6 * np.einsum("bkk->b", normal).real / taps
        for b in range(n_bins):
            A = normal[b] + delta[b] * np.eye(taps)
            try:
                filters[b] = np.linalg.solve(A, rhs[b])
            except np.linalg.LinAlgError:
                filters[b] = np.linalg.lstsq(A, rhs[b], rcond=None)[0]
        prediction = _prediction(filters, stack)
        enhanced[first_valid:].real = targets.real - prediction[:, 0].T
        enhanced[first_valid:].imag = targets.imag - prediction[:, 1].T
    return enhanced, filters


def legacy_reference(data, config):
    """WPE on the complex tap tensor, as it ran before the real-stack GEMM.

    Returns (enhanced, filters, objective, fallback_bins).
    """
    n_frames, n_bins = data.shape
    taps, delay = config.taps, config.delay
    first_valid = delay + taps - 1
    n_valid = n_frames - first_valid
    context = np.empty((n_bins, taps, n_valid), dtype=np.complex128)
    for k in range(taps):
        start = first_valid - delay - k
        context[:, k, :] = data[start:start + n_valid, :].T
    context_h = context.conj().transpose(0, 2, 1)
    weighted = np.empty_like(context)
    targets = data[first_valid:, :]
    enhanced = data.copy()
    objective = np.empty((config.iterations, n_bins))
    delta_per_bin = None
    fallback = set()
    for iteration in range(config.iterations):
        variance = np.maximum(
            _smoothed_power(enhanced, config.variance_context), config.variance_floor
        )
        lam = variance[first_valid:, :]
        np.divide(context, lam.T[:, None, :], out=weighted)
        normal = weighted @ context_h
        rhs = np.einsum("bkt,tb->bk", weighted, targets.conj())
        if delta_per_bin is None:
            if config.delta is not None:
                delta_per_bin = np.full(n_bins, float(config.delta))
            else:
                delta_per_bin = 1e-6 * np.einsum("bkk->b", normal).real / taps
        filters, failure = solve_normal_equations(normal, rhs, delta_per_bin)
        fallback.update(np.flatnonzero(failure).tolist())
        prediction = np.einsum("bk,bkt->tb", filters.conj(), context)
        enhanced[first_valid:, :] = targets - prediction
        residual = np.abs(enhanced[first_valid:, :]) ** 2 / lam
        objective[iteration] = (
            residual.sum(axis=0)
            + np.log(lam).sum(axis=0)
            + delta_per_bin * (np.abs(filters) ** 2).sum(axis=1)
        )
    return enhanced, filters, objective, tuple(sorted(fallback))


def test_batched_solve_matches_per_bin_reference():
    # The criterion-3 reverb-only utterances.
    config = WpeConfig()
    for seed in range(20):
        _, reverberant, _ = make_reverberant_pair(seed, t60=0.5, seconds=1.5)
        data = stft(reverberant, StftConfig()).data
        result = wpe_dereverberate(data, config)
        enhanced, filters = per_bin_reference(data, config)
        assert result.fallback_bins == ()
        assert np.array_equal(result.filters, filters)
        assert np.array_equal(result.enhanced, enhanced)


def test_singular_bin_takes_per_bin_path_and_matches_reference(monkeypatch):
    import specmap.wpe as wpe_module

    original = wpe_module._lapack_solve
    raised = []

    def spy(matrices, rhs):
        try:
            return original(matrices, rhs)
        except np.linalg.LinAlgError:
            raised.append(len(matrices))
            raise

    monkeypatch.setattr(wpe_module, "_lapack_solve", spy)
    _, reverberant, _ = make_reverberant_pair(0)
    data = stft(reverberant, StftConfig()).data.copy()
    data[:, 5] = 0.0
    config = WpeConfig(delta=0.0)
    result = wpe_module.wpe_dereverberate(data, config)
    enhanced, filters = per_bin_reference(data, config)
    # Only the block of bins that holds the zero bin falls back, once per iteration.
    n_valid = data.shape[0] - (config.delay + config.taps - 1)
    (block,) = [
        bins for bins in _bin_blocks(data.shape[1], config.taps, n_valid)
        if bins.start <= 5 < bins.stop
    ]
    assert raised == [block.stop - block.start] * config.iterations
    assert result.fallback_bins == ()
    assert np.all(result.filters[5] == 0)
    assert np.array_equal(result.filters, filters)
    assert np.array_equal(result.enhanced, enhanced)


def test_batched_solver_isolates_failing_systems():
    rng = np.random.default_rng(9)
    base = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
    normal = base @ base.conj().transpose(0, 2, 1) + np.eye(3)
    rhs = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    normal[1, 0, 0] = np.nan
    normal[3, 0, 1] += 1.0  # breaks Hermitian symmetry
    filters, failure = solve_normal_equations(normal, rhs, np.zeros(5))
    assert failure.tolist() == [0, 1, 0, 2, 0]
    assert np.all(filters[[1, 3]] == 0)
    for b in (0, 2, 4):
        assert np.array_equal(filters[b], solve_hermitian(normal[b], rhs[b]))


def test_real_stack_matches_complex_assembly():
    # The real-stack GEMM and the reciprocal multiply reorder the rounding of
    # the complex assembly, so agreement is to a tolerance, not bitwise. The
    # objective is compared relative to its largest magnitude: in some bins
    # the residual and log-variance sums nearly cancel, so a per-entry ratio
    # there would measure that cancellation, not the assembly.
    def assert_close(mine, reference):
        assert np.max(np.abs(mine - reference)) <= 1e-12 * np.max(np.abs(reference))

    cases = []
    for seed in range(20):  # the criterion-3 reverb-only utterances
        _, reverberant, _ = make_reverberant_pair(seed, t60=0.5, seconds=1.5)
        cases.append((stft(reverberant, StftConfig()).data, WpeConfig()))
    _, reverberant, _ = make_reverberant_pair(0)
    zero_bin = stft(reverberant, StftConfig()).data.copy()
    zero_bin[:, 5] = 0.0
    cases.append((zero_bin, WpeConfig(delta=0.0)))
    for data, config in cases:
        result = wpe_dereverberate(data, config)
        enhanced, filters, objective, fallback_bins = legacy_reference(data, config)
        assert_close(result.filters, filters)
        assert_close(result.enhanced, enhanced)
        assert_close(result.objective, objective)
        assert result.fallback_bins == fallback_bins


@pytest.mark.parametrize("n_bins", [1, 2, 3, 5, 257])
@pytest.mark.parametrize("budget", [1, 6 * 2**20, 2**62])
def test_bin_blocks_cover_every_bin_in_equal_blocks_of_two_or_more(monkeypatch, n_bins, budget):
    import specmap.wpe as wpe_module

    monkeypatch.setattr(wpe_module, "_BLOCK_BYTES", budget)
    blocks = _bin_blocks(n_bins, 10, 286)
    widths = [bins.stop - bins.start for bins in blocks]
    assert blocks[0].start == 0 and blocks[-1].stop == n_bins
    assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
    assert max(widths) - min(widths) <= 1
    assert min(widths) >= min(2, n_bins)
    # Every block's scratch fits the budget, unless the two-bin minimum binds.
    assert max(widths) * 42 * 286 * 8 <= budget or len(blocks) == max(1, n_bins // 2)
    if budget == 1:
        assert len(blocks) == max(1, n_bins // 2)
    if budget == 2**62:
        assert len(blocks) == 1


def assert_same_result(result, expected):
    for field in dataclasses.fields(WpeResult):
        assert np.array_equal(getattr(result, field.name), getattr(expected, field.name))


def assert_split_does_not_matter(monkeypatch, data, config):
    """Every WpeResult field under the default split, one block and blocks of
    two bins."""
    import specmap.wpe as wpe_module

    default = wpe_module.wpe_dereverberate(data, config)
    for budget in (wpe_module._BLOCK_BYTES, 2**62, 1):
        monkeypatch.setattr(wpe_module, "_BLOCK_BYTES", budget)
        assert_same_result(wpe_module.wpe_dereverberate(data, config), default)
    monkeypatch.undo()
    return default


def test_output_does_not_depend_on_the_bin_blocks(monkeypatch):
    small = WpeConfig(taps=4, delay=2, iterations=2, variance_context=0)
    for seed in range(20):  # the criterion-3 reverb-only utterances
        _, reverberant, _ = make_reverberant_pair(seed, t60=0.5, seconds=1.5)
        data = stft(reverberant, StftConfig()).data
        assert len(_bin_blocks(data.shape[1], 10, data.shape[0] - 12)) > 1
        assert_split_does_not_matter(monkeypatch, data, WpeConfig())
    rng = np.random.default_rng(11)
    for n_bins in (1, 2, 3, 257):
        data = rng.normal(size=(90, n_bins)) + 1j * rng.normal(size=(90, n_bins))
        for config in (WpeConfig(), small):
            result = assert_split_does_not_matter(monkeypatch, data, config)
        assert_same_result(wpe_dereverberate(np.asfortranarray(data), small), result)
    short = rng.normal(size=(13, 6)) + 1j * rng.normal(size=(13, 6))
    assert assert_split_does_not_matter(monkeypatch, short, WpeConfig()).objective.shape == (0, 6)


def test_singular_and_failing_bins_do_not_depend_on_the_bin_blocks(monkeypatch):
    import specmap.wpe as wpe_module

    _, reverberant, _ = make_reverberant_pair(0)
    zero_bin = stft(reverberant, StftConfig()).data.copy()
    zero_bin[:, 5] = 0.0
    result = assert_split_does_not_matter(monkeypatch, zero_bin, WpeConfig(delta=0.0))
    assert result.fallback_bins == () and np.all(result.filters[5] == 0)

    rng = np.random.default_rng(8)
    data = rng.normal(size=(50, 6)) + 1j * rng.normal(size=(50, 6))
    config = WpeConfig(taps=3, delay=2, iterations=1)
    # Bin 2's rhs in the one iteration, whose variance comes from the observation.
    lam = np.maximum(_smoothed_power(data, config.variance_context), config.variance_floor)[4:]
    _, bin_rhs = _normal_equations(_tap_stack(data, 3, 2), 1.0 / lam.T, np.empty((1, 6, 46)))
    original = wpe_module._lapack_solve

    def flaky(matrices, rhs):
        # NaN for bin 2's system, whichever block solves it.
        coefficients = original(matrices, rhs)
        coefficients[(rhs == bin_rhs[2]).all(axis=1)] = np.nan
        return coefficients

    results = []
    for budget in (6 * 2**20, 2**62, 1):
        monkeypatch.setattr(wpe_module, "_lapack_solve", flaky)
        monkeypatch.setattr(wpe_module, "_BLOCK_BYTES", budget)
        results.append(wpe_module.wpe_dereverberate(data, config))
        monkeypatch.undo()
    for result in results:
        assert result.fallback_bins == (2,)
        assert np.all(result.filters[2] == 0)
        assert_same_result(result, results[0])


def kept_scratch(wpe_module, drop=False):
    """Bytes of scratch the calling thread keeps; drop frees it."""
    buffer = getattr(wpe_module._scratch, "buffer", None)
    if drop:
        wpe_module._scratch.buffer = None
    return 0 if buffer is None else buffer.nbytes


def test_peak_memory_stays_within_a_few_inputs(monkeypatch):
    # Whole-utterance buffers peaked at 25x the input (102 MB here); blocks
    # of bins keep the working set to a few MB whatever the utterance
    # length. Scratch kept from earlier calls would escape tracemalloc, so
    # the call starts without any.
    import specmap.wpe as wpe_module

    rng = np.random.default_rng(10)
    data = rng.normal(size=(1000, 257)) + 1j * rng.normal(size=(1000, 257))
    kept_scratch(wpe_module, drop=True)
    tracemalloc.start()
    try:
        wpe_dereverberate(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * data.nbytes
    assert 0 < kept_scratch(wpe_module) <= wpe_module._BLOCK_BYTES
    # The next call reuses the calling thread's scratch.
    buffer = wpe_module._scratch.buffer
    wpe_dereverberate(data)
    assert wpe_module._scratch.buffer is buffer
    # Blocks that the two-bin minimum makes wider than the budget get scratch
    # for the call only.
    kept_scratch(wpe_module, drop=True)
    monkeypatch.setattr(wpe_module, "_BLOCK_BYTES", 1)
    wpe_dereverberate(data[:100])
    assert kept_scratch(wpe_module) == 0

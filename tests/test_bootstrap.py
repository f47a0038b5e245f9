import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qbs.bootstrap import (
    _DRAW_BLOCK,
    AGGREGATES,
    MODE_ORACLE,
    MODE_PARALLEL,
    MODE_SEQUENTIAL,
    MODES,
    SampleResults,
    classical_bootstrap_oracle,
    replicate,
)
from qbs.circuit import register_value
from qbs.counter import CounterSpec, adder_gates, build_counter, counter_gates
from qbs.errors import QbsError
from qbs.qram import BitDataArray, ValueDataArray, build_qsa, build_value_qsa, lookup_gates
from qbs.rng import make_rng
from qbs.sim import run_basis, run_basis_bits, simulate
from qbs.stats import chi_square_gof, chi_square_two_sample, raw_count_histogram

from helpers import (
    binom_pmf,
    binom_pmf_vector,
    build_parallel_replication_circuit,
    outcome_table,
    reference_raws,
    value_arrays,
)


@st.composite
def quantum_samples(draw) -> SampleResults:
    """A power-of-two sample: bits for COUNT, values below 2^10 for SUM/AVG."""
    aggregate = draw(st.sampled_from(AGGREGATES))
    n = draw(st.sampled_from([1, 2, 4, 8, 16, 32, 64]))
    top = 1 if aggregate == "COUNT" else 2**10 - 1
    values = draw(st.lists(st.integers(0, top), min_size=n, max_size=n))
    return SampleResults(tuple(values), 2 * n, aggregate)


class TestSampleResults:
    def test_count_values_must_be_bits(self):
        with pytest.raises(ValueError):
            SampleResults((0, 2), population_size=4)

    def test_fractional_values_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            SampleResults((1.5, 0), population_size=4, aggregate="SUM")

    def test_sum_values_must_be_non_negative(self):
        with pytest.raises(ValueError):
            SampleResults((3, -1), population_size=4, aggregate="SUM")

    def test_population_must_cover_sample(self):
        with pytest.raises(ValueError):
            SampleResults((0, 1), population_size=1)

    @pytest.mark.parametrize(
        "values, aggregate, message",
        [
            ((0, 2, 1.5, 3), "SUM", "tuple results must be integers, got 1.5"),
            ((1, 0.5), "COUNT", "tuple results must be integers, got 0.5"),
            ((0, "1"), "COUNT", "tuple results must be integers, got '1'"),
            ((3, 0, -1), "SUM", "SUM/AVG tuple results must be non-negative"),
            ((2, -4), "AVG", "SUM/AVG tuple results must be non-negative"),
            ((1, 0, 2), "COUNT", "COUNT tuple results must be 0 or 1"),
        ],
    )
    def test_rejections_keep_their_messages(self, values, aggregate, message):
        with pytest.raises(ValueError) as raised:
            SampleResults(values, population_size=8, aggregate=aggregate)
        assert str(raised.value) == message

    def test_fraction(self):
        sample = SampleResults((0, 1, 0, 1), population_size=8)
        assert sample.n == 4
        assert sample.f == 0.5

    def test_match_count_range(self):
        with pytest.raises(ValueError):
            SampleResults((0, 1), population_size=4, match_count=3)

    @pytest.mark.parametrize("aggregate", ["SUM", "AVG"])
    def test_totals_must_fit_int64(self, aggregate):
        # a resample of 16 values near 2^60 totals up to 2^64, which int64 wraps
        with pytest.raises(ValueError, match="int64"):
            SampleResults((2**60,) * 16, population_size=64, aggregate=aggregate)
        with pytest.raises(ValueError, match="int64"):
            SampleResults((2**63,), population_size=2, aggregate=aggregate)
        # the largest accepted totals stay exact
        sample = SampleResults((2**62 - 1,) * 2, population_size=4, aggregate=aggregate)
        raws = classical_bootstrap_oracle(sample, 4, seed=0).raw_counts()
        assert raws.tolist() == [2**63 - 2] * 4


class TestSequentialReplication:
    def test_all_ones_always_full_count(self):
        sample = SampleResults((1, 1, 1, 1), population_size=8)
        replications = replicate(sample, 5, MODE_SEQUENTIAL, seed=0)
        assert replications.raw_counts().tolist() == [4] * 5
        assert replications.estimates().tolist() == [8.0] * 5

    def test_all_zeros(self):
        sample = SampleResults((0, 0, 0, 0), population_size=8)
        replications = replicate(sample, 2, MODE_SEQUENTIAL, seed=3)
        assert replications.raw_counts().tolist() == [0, 0]
        assert replications.estimates().tolist() == [0.0, 0.0]

    def test_non_power_of_two_rejected(self):
        sample = SampleResults((0, 1, 1), population_size=6)
        with pytest.raises(ValueError, match="power-of-two"):
            replicate(sample, 2, MODE_SEQUENTIAL, seed=0)

    @pytest.mark.parametrize("n", [32, 64])
    def test_wide_counter_beyond_simulation_cap(self, n):
        # the 38- and 71-qubit counters run on a basis index, never simulated
        sample = SampleResults(tuple(k % 2 for k in range(n)), population_size=2 * n)
        raws = replicate(sample, 4, MODE_SEQUENTIAL, seed=5).raw_counts()
        assert all(0 <= raw <= n for raw in raws)

    def test_binomial_distribution(self, alternating_sample):
        replications = replicate(alternating_sample, 2000, MODE_SEQUENTIAL, seed=2)
        histogram = raw_count_histogram(replications.raw_counts(), 8)
        assert binom_pmf(4, 8, 0.5) == pytest.approx(0.2734375)
        _, p = chi_square_gof(histogram, binom_pmf_vector(8, 0.5))
        assert p > 0.001
        assert histogram[4] / 2000 == pytest.approx(0.273, abs=0.06)


class TestSeedStream:
    """Exact replications for fixed master seeds.

    Any change to how seeds are derived, how probabilities are normalised,
    how draws are made or how registers are read shows up here first.
    """

    @pytest.mark.parametrize(
        "sample, B, mode, seed, expected",
        [
            (SampleResults((1, 0, 1, 1, 0, 0, 1, 0), population_size=32),
             8, MODE_SEQUENTIAL, 11, [2, 5, 6, 3, 3, 2, 4, 1]),
            (SampleResults((3, 0, 5, 2), population_size=16, aggregate="SUM"),
             8, MODE_SEQUENTIAL, 12, [7, 5, 13, 6, 9, 18, 13, 10]),
            (SampleResults((1, 0, 1, 1), population_size=16),
             # the sequential engine's replications for this sample and seed
             16, MODE_PARALLEL, 13, [4, 2, 4, 3, 3, 3, 3, 2, 3, 3, 4, 3, 4, 4, 2, 3]),
            (SampleResults((1, 0, 1, 1, 0, 0, 1, 0), population_size=32),
             8, MODE_ORACLE, 14, [5, 4, 5, 4, 4, 3, 5, 6]),
        ],
        ids=["sequential-count", "sequential-sum", "parallel-count", "oracle"],
    )
    def test_golden_raw_counts(self, sample, B, mode, seed, expected):
        replications = replicate(sample, B, mode, seed)
        assert replications.raw_counts().tolist() == expected
        # two read-only arrays, stored once; every case here scales by 1/f
        raws, estimates = replications.raw_counts(), replications.estimates()
        assert raws.dtype == np.int64 and estimates.dtype == np.float64
        assert not raws.flags.writeable and not estimates.flags.writeable
        assert replications.raw_counts() is raws and replications.estimates() is estimates
        assert (estimates == raws / sample.f).all()

    @given(
        quantum_samples(),
        st.integers(2, 64),
        st.integers(0, 2**72) | st.sampled_from([0, 2**64 - 1, 2**64, 2**70 + 5]),
    )
    def test_equals_reference(self, sample, B, seed):
        # both quantum modes run one replication pass; check it against
        # one generator per draw and Python-int totals, not against itself
        expected = reference_raws(sample, seed, range(B))
        modes = [MODE_SEQUENTIAL] + [MODE_PARALLEL] * (sample.aggregate == "COUNT")
        for mode in modes:
            assert replicate(sample, B, mode, seed).raw_counts().tolist() == expected

    def test_draw_blocks_continue_the_seed_stream(self):
        sample = SampleResults(tuple(int(k % 3 == 0) for k in range(256)), 512)
        # so B=1100 and B=1027 span two blocks, the first of 1024 replications
        assert 256 * 1024 <= _DRAW_BLOCK < 256 * 1027
        expected = reference_raws(sample, 19, range(1020, 1031))
        for mode in (MODE_SEQUENTIAL, MODE_PARALLEL):
            full = replicate(sample, 1100, mode, seed=19).raw_counts().tolist()
            head = replicate(sample, 1024, mode, seed=19).raw_counts().tolist()
            padded = replicate(sample, 1027, mode, seed=19).raw_counts().tolist()
            assert full[:1024] == head == padded[:1024]
            assert full[1020:1031] == expected
            assert padded[1020:] == expected[:7]

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, 2**70 + 5])
    def test_raw_words_give_the_uniform_draws(self, seed):
        # the engines read draw floor(u * 2^a) as the top a bits of the raw
        # 64-bit word that random() turns into u
        for a in range(21):
            raw = make_rng(seed).bit_generator.random_raw(4096)
            raw >>= 64 - a
            expected = np.floor(make_rng(seed).random(4096) * 2**a).astype(np.int64)
            assert (raw.view(np.int64) == expected).all()


class TestOutcomeTable:
    """The engine's outcome table, ``np.sort(values)``, against the lookup it stands for."""

    @given(value_arrays(6, 5))
    def test_equals_the_statevector_outcomes(self, data):
        # measuring the resampler gives n equally likely outcomes; their data,
        # in basis-index order, is the table the engine draws from
        qsa = build_value_qsa(data)
        probs = simulate(qsa).probabilities()
        support = np.flatnonzero(probs)
        assert support.size == len(data.values)
        assert np.ptp(probs[support]) <= 1e-12
        expected = register_value(support, qsa.register("data")).tolist()
        assert np.sort(data.values).tolist() == expected

    @given(value_arrays(7, 8))
    @example(ValueDataArray((5,), 3))
    @example(ValueDataArray((0, 0, 0, 0), 2))
    def test_walk_equals_the_batch_run(self, data):
        # the lookup run on all n addresses at once: bit j of address word q
        # is bit q of j, and data word k then holds bit k of every address's data
        n, a = len(data.values), data.address_width
        ones = (1 << n) - 1
        addresses = [ones ^ ones // ((1 << (1 << q)) + 1) for q in range(a)]
        words = run_basis_bits(lookup_gates(data), addresses + [0] * data.width, n)
        found = sorted(states(words[a:], n))
        assert outcome_table(data) == found == np.sort(data.values).tolist()

    @pytest.mark.parametrize(
        "pairs",
        [
            [((0,), 2)],  # an MCX on only some address qubits
            [((), 2)],  # an X on a data qubit
            [((0, 1), 4)],  # a target past the data register
            [((), 0)],  # a sandwich X left unpaired
        ],
        ids=["partial-controls", "data-x", "past-data", "unpaired-x"],
    )
    def test_walk_rejects_other_pair_shapes(self, monkeypatch, pairs):
        monkeypatch.setattr("helpers.lookup_gates", lambda data: iter(pairs))
        with pytest.raises(QbsError):
            outcome_table(ValueDataArray((1, 2, 3, 0), 2))


def words(count: int, batch: int):
    """Strategy: ``count`` words of ``batch`` bits, one bit per basis state."""
    return st.lists(st.integers(0, 2**batch - 1), min_size=count, max_size=count)


def states(words: list[int], batch: int) -> list[int]:
    """The register each of ``batch`` basis states holds: bit k of state j is bit j of word k."""
    return [sum((word >> j & 1) << k for k, word in enumerate(words)) for j in range(batch)]


def replication_grid():
    """COUNT, SUM and AVG samples at n = 1..1024 and value widths 1, 3, 8, zeros included."""
    for n in (1, 2, 16, 256, 1024):
        for B in (2, 7, 1000):
            yield SampleResults(tuple(int((5 * i + n) % 3 == 0) for i in range(n)), 2 * n), B
            yield SampleResults((0,) * n, 2 * n), B
            for aggregate in ("SUM", "AVG"):
                for w in (1, 3, 8):
                    rest = tuple((7 * i + 3 * w + n) % (1 << w) for i in range(1, n))
                    yield SampleResults(((1 << w) - 1,) + rest, 2 * n, aggregate), B
                yield SampleResults((0,) * n, 2 * n, aggregate), B


class TestRippleAdd:
    """The circuits, run as gate pairs on packed words, against the integer sums the engines take."""

    @given(st.integers(1, 8), st.integers(1, 70), st.data())
    def test_equals_the_ripple_adder(self, width, batch, data):
        a, b = data.draw(words(width, batch)), data.draw(words(width, batch))
        # registers A, B, carry-in, carry-out; B and the carry-out gain A
        out = run_basis_bits(adder_gates(width), a + b + [0, 0], batch)
        assert out[:width] == a and out[2 * width] == 0
        sums = [x + y for x, y in zip(states(a, batch), states(b, batch))]
        assert states(out[width:2 * width] + [out[-1]], batch) == sums

    @given(st.integers(1, 40), st.integers(0, 2), st.integers(1, 70), st.data())
    def test_equals_the_counter(self, p, extra, batch, data):
        spec = CounterSpec(p, p.bit_length() + extra)
        controls = data.draw(words(p, batch))
        out = run_basis_bits(counter_gates(spec), controls + [0] * spec.q, batch)
        assert out[:p] == controls
        counts = [sum(control >> j & 1 for control in controls) for j in range(batch)]
        assert states(out[p:], batch) == counts

    def test_replications_equal_the_pair_runs(self):
        # SHA-256 of every raw total and estimate over the grid, computed when
        # the engines ran the counter's and the adder's gate pairs
        digest = hashlib.sha256()
        for seed, (sample, B) in enumerate(replication_grid()):
            for mode in [MODE_SEQUENTIAL] + [MODE_PARALLEL] * (sample.aggregate == "COUNT"):
                replications = replicate(sample, B, mode, seed)
                digest.update(replications.raw_counts().tobytes())
                digest.update(replications.estimates().tobytes())
        expected = "028f33bd9a1d640e6669e970132d4a99babeaa65d199719f0665aded3f133490"
        assert digest.hexdigest() == expected


class TestParallelReplication:
    def test_constant_data_always_counts_two(self):
        sample = SampleResults((1, 1), population_size=4)
        assert replicate(sample, 20, MODE_PARALLEL, seed=4).raw_counts().tolist() == [2] * 20

    def test_circuit_layout_n4(self):
        sample = SampleResults((0, 1, 0, 1), population_size=8)
        circuit = build_parallel_replication_circuit(sample)
        assert circuit.num_qubits == 15
        assert circuit.register("counter") == range(12, 15)
        assert circuit.register("data0") == range(2, 3)
        assert circuit.register("address3") == range(9, 11)

    def test_binomial_distribution_n4(self):
        sample = SampleResults((0, 1, 0, 1), population_size=8)
        replications = replicate(sample, 4096, MODE_PARALLEL, seed=6)
        histogram = raw_count_histogram(replications.raw_counts(), 4)
        _, p = chi_square_gof(histogram, binom_pmf_vector(4, 0.5))
        assert p > 0.001

    def test_sum_not_supported(self):
        sample = SampleResults((3, 1), population_size=4, aggregate="SUM")
        with pytest.raises(ValueError, match="COUNT"):
            replicate(sample, 2, MODE_PARALLEL, seed=0)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_full_circuit_marginal_equals_block_pushforward(self, n):
        # deferred measurement: the full-width circuit's counter marginal is
        # the product of the block outcome probabilities pushed through the
        # counter, which is what the engine samples
        counter = build_counter(CounterSpec.for_controls(n))
        counter_register = counter.register("counter")
        for pattern in range(1 << n):
            sample = SampleResults(tuple(pattern >> k & 1 for k in range(n)), 2 * n)
            full = build_parallel_replication_circuit(sample)
            indices = np.arange(1 << full.num_qubits)
            marginal = np.bincount(
                register_value(indices, full.register("counter")),
                weights=simulate(full).probabilities(),
                minlength=1 << len(counter_register),
            )
            qsa = build_qsa(BitDataArray(sample.values))
            block_probs = simulate(qsa).probabilities()
            data = register_value(np.arange(block_probs.size), qsa.register("data"))
            p_one = block_probs[data == 1].sum()
            pushforward = np.zeros_like(marginal)
            for drawn in range(1 << n):
                ones = bin(drawn).count("1")
                total = register_value(run_basis(counter, drawn), counter_register)
                pushforward[total] += p_one**ones * (1 - p_one) ** (n - ones)
            np.testing.assert_allclose(marginal, pushforward, rtol=0, atol=1e-12)

    def test_single_cell_sample(self):
        # n=1 leaves no address qubits; the data qubit alone feeds the counter
        sample = SampleResults((1,), population_size=2)
        for mode in (MODE_SEQUENTIAL, MODE_PARALLEL):
            assert replicate(sample, 3, mode, seed=1).raw_counts().tolist() == [1, 1, 1]


class TestClassicalOracle:
    def test_constant_sample(self):
        sample = SampleResults((1, 1, 1), population_size=6)
        assert classical_bootstrap_oracle(sample, 10, seed=1).raw_counts().tolist() == [3] * 10

    def test_two_value_histogram(self):
        sample = SampleResults((0, 1), population_size=4)
        replications = classical_bootstrap_oracle(sample, 10000, seed=8)
        histogram = raw_count_histogram(replications.raw_counts(), 2)
        # index repetition shows up as raw 0 and raw 2 at probability 1/4 each
        _, p = chi_square_gof(histogram, binom_pmf_vector(2, 0.5))
        assert p > 0.001
        assert histogram[0] > 0 and histogram[2] > 0

    def test_any_sample_size_allowed(self):
        sample = SampleResults((0, 1, 1), population_size=6)
        replications = classical_bootstrap_oracle(sample, 50, seed=9)
        assert replications.B == 50

    @pytest.mark.parametrize("n", [1, 5, 8, 1000, 4096, 4097])
    @pytest.mark.parametrize("B", [2, 17, 1000])
    def test_blocks_are_the_single_draw(self, n, B):
        # 4096 and 4097 end B=1000 on a partial block, 4097 on odd-sized blocks
        values = [(7 * i + n) % 11 for i in range(n)]
        sample = SampleResults(tuple(values), population_size=2 * n, aggregate="SUM")
        picks = make_rng(21).integers(0, n, size=(B, n))
        expected = np.asarray(values, dtype=np.int64)[picks].sum(axis=1)
        raws = classical_bootstrap_oracle(sample, B, seed=21).raw_counts()
        assert raws.tolist() == expected.tolist()
        doubled = classical_bootstrap_oracle(sample, 2 * B, seed=21).raw_counts()
        assert doubled[:B].tolist() == raws.tolist()

    @pytest.mark.parametrize(
        "sample, expected",
        [
            (SampleResults(tuple(int(i % 3 == 0) for i in range(4096)), population_size=8192),
             "b045e73f146c4ac03eae3a1442c4df0eb51c1c8ead492c44aebf03667007a938"),
            (SampleResults(tuple(16 + i // 2 % 16 for i in range(4096)), population_size=8192,
                           aggregate="SUM"),
             "1958eff6e3cbe4570341d669a7198cc6d9cef12da219eef5cdc3ac1c7adce06f"),
        ],
        ids=["count", "sum"],
    )
    def test_golden_digest(self, sample, expected):
        # computed from the single (B, n) draw, before the oracle drew in blocks
        raws = classical_bootstrap_oracle(sample, 1000, seed=1).raw_counts()
        assert hashlib.sha256(raws.tobytes()).hexdigest() == expected

    @pytest.mark.parametrize(
        "aggregate, mode",
        [("SUM", MODE_ORACLE), ("SUM", MODE_SEQUENTIAL), ("COUNT", MODE_PARALLEL)],
        ids=["oracle-sum", "sequential-sum", "parallel-count"],
    )
    def test_memory_does_not_grow_with_b_times_n(self, aggregate, mode):
        # numpy reports its buffers to tracemalloc; one (B, n) draw here peaks near 250 MB
        values = [16 + i // 2 % 16 if aggregate == "SUM" else i % 2 for i in range(16384)]
        sample = SampleResults(tuple(values), population_size=32768, aggregate=aggregate)
        tracemalloc.start()
        try:
            replicate(sample, 1000, mode, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestReplicate:
    def test_b_below_two_rejected(self, alternating_sample):
        for mode in MODES:
            with pytest.raises(ValueError, match="B >= 2"):
                replicate(alternating_sample, 1, mode, seed=0)

    def test_unknown_mode_rejected(self, alternating_sample):
        with pytest.raises(ValueError, match="mode"):
            replicate(alternating_sample, 10, "warp", seed=0)

    def test_mean_raw_count(self, alternating_sample):
        replications = replicate(alternating_sample, 1000, MODE_SEQUENTIAL, seed=10)
        assert 3.8 <= float(replications.raw_counts().mean()) <= 4.2

    def test_degenerate_zero_sample(self):
        sample = SampleResults((0, 0), population_size=4)
        assert replicate(sample, 2, MODE_SEQUENTIAL, seed=0).raw_counts().tolist() == [0, 0]

    @pytest.mark.parametrize("mode", [MODE_SEQUENTIAL, MODE_PARALLEL, MODE_ORACLE])
    def test_determinism(self, mode):
        sample = SampleResults((0, 1, 0, 1), population_size=8)
        first = replicate(sample, 40, mode, seed=123)
        second = replicate(sample, 40, mode, seed=123)
        assert first.raw_counts().tolist() == second.raw_counts().tolist()
        assert first.estimates().tolist() == second.estimates().tolist()
        assert (first.mode, first.seed) == (second.mode, second.seed)

    @pytest.mark.parametrize("mode", MODES)
    def test_negative_master_rejected(self, mode):
        sample = SampleResults((1, 0, 1, 1), population_size=16)
        for master in (-1, np.int64(-1)):
            with pytest.raises(ValueError, match="non-negative"):
                replicate(sample, 4, mode, master)

    @pytest.mark.parametrize("mode", MODES)
    def test_numpy_integer_master(self, mode):
        sample = SampleResults((1, 0, 1, 1), population_size=16)
        expected = replicate(sample, 4, mode, 7).raw_counts().tolist()
        for master in (np.uint64(7), np.int64(7)):
            assert replicate(sample, 4, mode, master).raw_counts().tolist() == expected

    @pytest.mark.parametrize("mode", [MODE_SEQUENTIAL, MODE_PARALLEL, MODE_ORACLE])
    def test_raw_count_range(self, mode):
        sample = SampleResults((0, 1, 1, 1), population_size=8)
        replications = replicate(sample, 300, mode, seed=11)
        raws = replications.raw_counts()
        assert raws.min() >= 0 and raws.max() <= 4

    def test_quantum_matches_oracle_distribution(self, alternating_sample):
        quantum = replicate(alternating_sample, 2000, MODE_SEQUENTIAL, seed=21)
        classical = replicate(alternating_sample, 2000, MODE_ORACLE, seed=22)
        _, p = chi_square_two_sample(
            raw_count_histogram(quantum.raw_counts(), 8),
            raw_count_histogram(classical.raw_counts(), 8),
        )
        assert p > 0.001

    @given(
        st.sampled_from([2, 4]).flatmap(lambda n: st.tuples(st.just(n), st.integers(n, 64))),
        st.integers(0, 2**64 - 1),
    )
    def test_estimate_is_exact_scaling(self, n_and_population, seed):
        n, population = n_and_population
        bits = SampleResults((0, 1) * (n // 2), population_size=population)
        cases = [(bits, mode) for mode in (MODE_SEQUENTIAL, MODE_PARALLEL, MODE_ORACLE)]
        for aggregate in ("SUM", "AVG"):
            values = SampleResults(tuple(range(1, n + 1)), population, aggregate)
            cases += [(values, MODE_SEQUENTIAL), (values, MODE_ORACLE)]
        for sample, mode in cases:
            # AVG divides the resample total by n; COUNT and SUM by f = n/N
            divisor = n if sample.aggregate == "AVG" else n / population
            replications = replicate(sample, 8, mode, seed)
            raws = replications.raw_counts().tolist()
            assert replications.estimates().tolist() == [raw / divisor for raw in raws]


class TestSumReplication:
    def test_sum_support_and_mean(self):
        sample = SampleResults((3, 1), population_size=4, aggregate="SUM")
        replications = replicate(sample, 400, MODE_SEQUENTIAL, seed=14)
        raws = replications.raw_counts()
        assert set(np.unique(raws)) <= {2, 4, 6}
        # resample mean is (3+1)/2 per draw, so 4 per replication of two draws
        assert 3.4 <= raws.mean() <= 4.6
        assert replications.estimates()[0] == raws[0] / 0.5

    def test_sum_matches_classical_oracle(self):
        sample = SampleResults((2, 0, 3, 1), population_size=8, aggregate="SUM")
        quantum = replicate(sample, 500, MODE_SEQUENTIAL, seed=15)
        classical = classical_bootstrap_oracle(sample, 500, seed=16)
        # raw totals range over 0..12
        _, p = chi_square_two_sample(
            raw_count_histogram(quantum.raw_counts(), 12),
            raw_count_histogram(classical.raw_counts(), 12),
        )
        assert p > 0.001

    def test_avg_estimate_divides_by_n(self):
        sample = SampleResults((4, 2), population_size=4, aggregate="AVG")
        replications = replicate(sample, 50, MODE_SEQUENTIAL, seed=17)
        raws = replications.raw_counts().tolist()
        assert replications.estimates().tolist() == [raw / 2 for raw in raws]

    def test_sum_of_all_zero_values(self):
        sample = SampleResults((0, 0), population_size=4, aggregate="SUM")
        assert replicate(sample, 3, MODE_SEQUENTIAL, seed=18).raw_counts().tolist() == [0, 0, 0]

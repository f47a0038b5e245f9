import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qbs.rng import child_seeds, child_uniforms, derive_seed, make_rng

# masters at the word boundaries of the SeedSequence entropy
EDGE_MASTERS = (0, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**130 + 3, 2**200 - 1)


class TestChildUniforms:
    @given(
        st.integers(0, 2**200) | st.sampled_from(EDGE_MASTERS),
        st.integers(0, 300),
    )
    def test_equals_one_generator_per_child(self, master, count):
        seeds = child_seeds(master, count)
        assert seeds.dtype == np.uint64
        assert seeds.tolist() == [derive_seed(master, k) for k in range(count)]
        expected = [make_rng(derive_seed(master, k)).random() for k in range(count)]
        uniforms = child_uniforms(master, count)
        assert uniforms.dtype == np.float64
        assert uniforms.tolist() == expected
        # a uint64 array of masters gives one row of children per master
        grid = child_uniforms(seeds[:8], 5)
        assert grid.shape == (min(count, 8), 5)
        assert grid.tolist() == [
            [make_rng(derive_seed(int(row_master), k)).random() for k in range(5)]
            for row_master in seeds[:8]
        ]

    @pytest.mark.parametrize("master", [0, 7, 2**63 - 1])
    def test_numpy_integer_master(self, master):
        for as_numpy in (np.int64, np.uint64):
            assert child_seeds(as_numpy(master), 6).tolist() == child_seeds(master, 6).tolist()
        assert child_seeds(np.uint64(2**64 - 1), 6).tolist() == child_seeds(2**64 - 1, 6).tolist()

    def test_negative_master_rejected(self):
        for draw in (child_seeds, child_uniforms):
            for master in (-1, np.int64(-1)):
                with pytest.raises(ValueError, match="non-negative"):
                    draw(master, 4)

    def test_count_beyond_one_key_word_rejected(self):
        for draw in (child_seeds, child_uniforms):
            with pytest.raises(ValueError, match="count"):
                draw(7, 2**32)

    @pytest.mark.parametrize("master", [0, 2**64 - 1, 2**70 + 5, "array"])
    def test_no_warning(self, master):
        if master == "array":
            master = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            child_seeds(master, 9)
            child_uniforms(master, 9)

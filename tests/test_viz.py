"""Tests for the terminal visualization helpers."""

from hypothesis import given, strategies as st

from repro.viz import sparkline, timeline


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_flat_series_uses_floor(self):
        assert sparkline([5, 5, 5]) == "   "

    def test_monotone_shape(self):
        line = sparkline([0, 1, 2, 3], lo=0, hi=3)
        assert len(line) == 4
        assert line[0] == " " and line[-1] == "█"

    def test_ascii_mode(self):
        line = sparkline([0, 10], ascii_only=True)
        assert line == " @"

    def test_clamps_out_of_range(self):
        line = sparkline([-5, 100], lo=0, hi=10)
        assert line[0] == " " and line[-1] == "█"

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1,
                    max_size=50))
    def test_length_matches_input(self, xs):
        assert len(sparkline(xs)) == len(xs)


class TestTimeline:
    def test_shared_scale(self):
        out = timeline({"a": [0, 1], "b": [0, 10]})
        lines = out.splitlines()
        # 'a' peaks at 1 of a shared 10-scale: low block; 'b' hits full.
        assert lines[1].rstrip("|").endswith("█")
        assert "█" not in lines[0]

    def test_downsampling(self):
        out = timeline({"x": list(range(100))}, width=10)
        assert len(out.splitlines()[0]) == len("x |") + 10 + 1

    def test_empty(self):
        assert timeline({}) == ""

    def test_ascii_only(self):
        out = timeline({"a": [0, 5, 10]}, ascii_only=True)
        assert "█" not in out and out.rstrip("|").endswith("@")

    def test_explicit_hi_pins_scale(self):
        # with hi=20 a peak of 10 renders at half scale, not full
        out = timeline({"a": [0, 10]}, hi=20)
        assert "█" not in out

    def test_labels_aligned(self):
        out = timeline({"a": [1], "long": [1]})
        lines = out.splitlines()
        assert lines[0].index("|") == lines[1].index("|")

    def test_empty_series_renders_blank_row(self):
        out = timeline({"a": [], "b": [1]})
        assert out.splitlines()[0] == "a ||"


class TestSparklineScale:
    def test_explicit_bounds_override_data(self):
        # same data, wider scale -> lower blocks
        narrow = sparkline([5], lo=0, hi=5)
        wide = sparkline([5], lo=0, hi=100)
        assert narrow == "█" and wide != "█"

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1,
                    max_size=50))
    def test_ascii_never_emits_blocks(self, xs):
        assert "█" not in sparkline(xs, ascii_only=True)

"""Unit tests for the layout specification and address mapping."""

import pytest

from repro.layout.layout import IntraLineDim, Layout, parse_layout


class TestParseLayout:
    def test_parse_paper_example(self):
        layout = parse_layout("CHW_W4H2C2")
        assert layout.inter_order == ("C", "H", "W")
        assert layout.intra == (IntraLineDim("W", 4), IntraLineDim("H", 2),
                                IntraLineDim("C", 2))

    def test_parse_row_major(self):
        layout = parse_layout("HCW_W8")
        assert layout.inter_order == ("H", "C", "W")
        assert layout.line_size == 8

    def test_parse_channel_last(self):
        layout = parse_layout("HWC_C32")
        assert layout.intra_dims == ("C",)
        assert layout.line_size == 32

    def test_parse_gemm_layout(self):
        layout = parse_layout("MK_K32")
        assert layout.inter_order == ("M", "K")
        assert layout.intra_size("K") == 32

    def test_name_round_trip(self):
        for name in ("CHW_W4H2C2", "HWC_C32", "HCW_W8", "MK_M4K8"):
            assert parse_layout(name).name == name

    def test_parse_lowercase(self):
        layout = parse_layout("hwc_c4")
        assert layout.name == "HWC_C4"

    def test_parse_empty_raises(self):
        with pytest.raises(ValueError):
            parse_layout("_")

    def test_parse_rejects_repeated_dims(self):
        for text in ("garbage", "HWH_C32", "MK_K4K8"):
            with pytest.raises(ValueError, match="repeat"):
                parse_layout(text)


class TestLayoutProperties:
    def test_line_size_product(self):
        layout = parse_layout("CHW_W4H2C2")
        assert layout.line_size == 16

    def test_intra_size_missing_dim_is_one(self):
        layout = parse_layout("HWC_C32")
        assert layout.intra_size("W") == 1

    def test_duplicate_intra_dim_raises(self):
        with pytest.raises(ValueError):
            Layout(("H",), (IntraLineDim("C", 2), IntraLineDim("C", 4)))

    def test_cached_name_leaves_eq_hash_and_pickling_alone(self):
        import pickle

        named, fresh = parse_layout("CHW_W4H2C2"), parse_layout("CHW_W4H2C2")
        assert named.name is named.name == "CHW_W4H2C2"
        assert named == fresh and hash(named) == hash(fresh)
        again = pickle.loads(pickle.dumps(named))
        assert again == fresh and again.name == "CHW_W4H2C2"

    def test_covers(self):
        layout = parse_layout("HWC_C32")
        assert layout.covers(["C", "H", "W"])
        assert not layout.covers(["M"])

    def test_with_line_size_grows_innermost(self):
        layout = parse_layout("HWC_C4")
        resized = layout.with_line_size(32)
        assert resized.line_size == 32
        assert resized.intra_size("C") == 32

    def test_with_line_size_incompatible_raises(self):
        layout = parse_layout("HWC_C4W8")  # tail W8... C is innermost listed first
        with pytest.raises(ValueError):
            layout.with_line_size(12)


class TestAddressMapping:
    DIMS = {"C": 8, "H": 4, "W": 8}

    def test_intra_line_offset_order(self):
        # W4H2C2: W varies fastest within a line.
        layout = parse_layout("CHW_W4H2C2")
        line0, off0 = layout.address({"C": 0, "H": 0, "W": 0}, self.DIMS)
        line1, off1 = layout.address({"C": 0, "H": 0, "W": 1}, self.DIMS)
        assert line0 == line1
        assert off1 == off0 + 1

    def test_intra_line_second_dim_stride(self):
        layout = parse_layout("CHW_W4H2C2")
        _, off_h0 = layout.address({"C": 0, "H": 0, "W": 0}, self.DIMS)
        _, off_h1 = layout.address({"C": 0, "H": 1, "W": 0}, self.DIMS)
        assert off_h1 - off_h0 == 4  # W tile size

    def test_line_changes_across_tiles(self):
        layout = parse_layout("CHW_W4H2C2")
        line_a, _ = layout.address({"C": 0, "H": 0, "W": 0}, self.DIMS)
        line_b, _ = layout.address({"C": 0, "H": 0, "W": 4}, self.DIMS)
        assert line_a != line_b

    def test_channel_last_groups_channels(self):
        layout = parse_layout("HWC_C8")
        lines = {layout.address({"C": c, "H": 0, "W": 0}, self.DIMS)[0]
                 for c in range(8)}
        assert len(lines) == 1

    def test_row_major_groups_width(self):
        layout = parse_layout("HCW_W8")
        lines = {layout.address({"C": 0, "H": 0, "W": w}, self.DIMS)[0]
                 for w in range(8)}
        assert len(lines) == 1

    def test_row_major_splits_channels(self):
        layout = parse_layout("HCW_W8")
        lines = {layout.address({"C": c, "H": 0, "W": 0}, self.DIMS)[0]
                 for c in range(8)}
        assert len(lines) == 8

    def test_inter_line_order(self):
        # CHW: C outermost -> consecutive W tiles are adjacent lines.
        layout = parse_layout("CHW_W4")
        line_w0, _ = layout.address({"C": 0, "H": 0, "W": 0}, self.DIMS)
        line_w4, _ = layout.address({"C": 0, "H": 0, "W": 4}, self.DIMS)
        line_h1, _ = layout.address({"C": 0, "H": 1, "W": 0}, self.DIMS)
        assert line_w4 == line_w0 + 1
        assert line_h1 > line_w4

    def test_num_lines_covers_tensor(self):
        layout = parse_layout("HWC_C4")
        # 8 channels / 4 per line * 4 * 8 positions = 64 lines
        assert layout.num_lines(self.DIMS) == 4 * 8 * 2

    def test_address_within_bounds(self):
        layout = parse_layout("HWC_C4")
        n_lines = layout.num_lines(self.DIMS)
        for c in range(self.DIMS["C"]):
            for h in range(self.DIMS["H"]):
                for w in range(self.DIMS["W"]):
                    line, off = layout.address({"C": c, "H": h, "W": w}, self.DIMS)
                    assert 0 <= line < n_lines
                    assert 0 <= off < layout.line_size

    def test_address_bijective_over_tensor(self):
        layout = parse_layout("CHW_W4H2C2")
        seen = set()
        for c in range(self.DIMS["C"]):
            for h in range(self.DIMS["H"]):
                for w in range(self.DIMS["W"]):
                    addr = layout.address({"C": c, "H": h, "W": w}, self.DIMS)
                    assert addr not in seen, f"collision at {(c, h, w)}"
                    seen.add(addr)

    def test_missing_coord_treated_as_zero(self):
        layout = parse_layout("HWC_C4")
        assert layout.address({}, self.DIMS) == layout.address(
            {"C": 0, "H": 0, "W": 0}, self.DIMS)

    def test_uncovered_dim_extends_lines(self):
        layout = parse_layout("HW_W4")
        dims = {"H": 2, "W": 8, "C": 3}
        base = layout.num_lines({"H": 2, "W": 8})
        assert layout.num_lines(dims) == base * 3

"""Tests for the layout libraries used by the paper's search."""

from repro.layout.library import (
    conv_layout_library,
    gemm_layout_library,
    motivation_layouts,
)


class TestLayoutLibraries:
    def test_conv_library_has_seven_layouts(self):
        assert len(conv_layout_library()) == 7

    def test_conv_library_names(self):
        names = {l.name for l in conv_layout_library()}
        assert "HWC_C32" in names
        assert "HWC_C4W8" in names

    def test_gemm_library_has_three_layouts(self):
        assert len(gemm_layout_library()) == 3

    def test_gemm_library_names(self):
        names = {l.name for l in gemm_layout_library()}
        assert names == {"MK_K32", "MK_M32", "MK_M4K8"}

    def test_conv_layouts_cover_chw(self):
        for layout in conv_layout_library():
            assert layout.covers(["C", "H", "W"])

    def test_resize_to_line_size(self):
        layouts = conv_layout_library(line_size=16)
        for layout in layouts:
            # Resizing is best-effort; at minimum the library still parses.
            assert layout.line_size >= 1

    def test_every_library_layout_fits_its_streaming_tensor(self):
        from repro.api.codec import check_layout_fits
        from repro.workloads.conv import ConvLayerSpec
        from repro.workloads.gemm import GemmSpec

        conv = ConvLayerSpec("c", m=8, c=8, h=8, w=8, r=3, s=3)
        gemm = GemmSpec("g", m=8, k=8, n=8)
        for layout in conv_layout_library() + motivation_layouts():
            check_layout_fits(layout, conv)
        for layout in gemm_layout_library():
            check_layout_fits(layout, gemm)

    def test_motivation_layouts_include_fig4_pair(self):
        names = {l.name for l in motivation_layouts()}
        assert "HWC_W2C3" in names
        assert "HCW_W8" in names

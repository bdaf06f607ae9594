"""Reference interpreter vs closed-form NumPy formulas."""

import numpy as np
import pytest

from repro.errors import KernelError
from repro.kernels import get_kernel, run_reference
from repro.kernels.suite import at
from repro.kernels import ArrayDecl, Assign, Kernel, Loop, Reduce


class TestAgainstClosedForm:
    def test_daxpy(self):
        spec = get_kernel("daxpy")
        kernel, inputs = spec.instantiate(32)
        out = run_reference(kernel, inputs)
        np.testing.assert_allclose(
            out["y"], 2.5 * inputs["x"] + inputs["y"]
        )

    def test_hydro(self):
        kernel, inputs = get_kernel("hydro").instantiate(32)
        out = run_reference(kernel, inputs)
        y, z = inputs["y"], inputs["z"]
        want = 0.84 + y * (1.1 * z[10:42] + 0.37 * z[11:43])
        np.testing.assert_allclose(out["x"], want)

    def test_inner_product(self):
        kernel, inputs = get_kernel("inner_product").instantiate(32)
        out = run_reference(kernel, inputs)
        assert out["out"][0] == pytest.approx(
            float(np.dot(inputs["x"], inputs["z"]))
        )

    def test_first_sum_prefix(self):
        kernel, inputs = get_kernel("first_sum").instantiate(16)
        out = run_reference(kernel, inputs)
        want = np.cumsum(inputs["y"])
        want[0] = inputs["x"][0]
        np.testing.assert_allclose(out["x"][1:], np.cumsum(inputs["y"][1:]))

    def test_pic_gather(self):
        kernel, inputs = get_kernel("pic_gather").instantiate(32)
        out = run_reference(kernel, inputs)
        ix = inputs["ix"].astype(int)
        np.testing.assert_allclose(
            out["vx"], inputs["vx"] + inputs["e"][ix]
        )

    def test_pic_scatter(self):
        kernel, inputs = get_kernel("pic_scatter").instantiate(32)
        out = run_reference(kernel, inputs)
        ir = inputs["ir"].astype(int)
        want = inputs["rho"].copy()
        want[ir] += 0.8 * inputs["w"]
        np.testing.assert_allclose(out["rho"], want)

    def test_threshold(self):
        kernel, inputs = get_kernel("threshold").instantiate(32)
        out = run_reference(kernel, inputs)
        x = inputs["x"]
        np.testing.assert_allclose(out["y"], np.where(x > 0.5, x, 0.0))

    def test_max_abs(self):
        kernel, inputs = get_kernel("max_abs").instantiate(32)
        out = run_reference(kernel, inputs)
        assert out["out"][0] == pytest.approx(np.abs(inputs["x"]).max())

    def test_reverse_copy(self):
        kernel, inputs = get_kernel("reverse_copy").instantiate(32)
        out = run_reference(kernel, inputs)
        np.testing.assert_allclose(out["y"], inputs["x"][::-1])

    def test_stencil2d(self):
        kernel, inputs = get_kernel("stencil2d").instantiate(64)
        out = run_reference(kernel, inputs)
        a = inputs["a"].reshape(-1, 34)
        want = 0.3 * a[:, :-2] + 0.4 * a[:, 1:-1] + 0.3 * a[:, 2:]
        got = out["out"].reshape(-1, 34)[:, 1:-1]
        np.testing.assert_allclose(got, want)


class TestInputContract:
    def test_missing_input_array(self):
        kernel, inputs = get_kernel("daxpy").instantiate(8)
        del inputs["y"]
        with pytest.raises(KernelError, match="missing input"):
            run_reference(kernel, inputs)

    def test_extra_input_array(self):
        kernel, inputs = get_kernel("daxpy").instantiate(8)
        inputs["zzz"] = np.zeros(4)
        with pytest.raises(KernelError, match="undeclared"):
            run_reference(kernel, inputs)

    def test_wrong_shape(self):
        kernel, inputs = get_kernel("daxpy").instantiate(8)
        inputs["x"] = np.zeros(9)
        with pytest.raises(KernelError, match="shape"):
            run_reference(kernel, inputs)

    def test_inputs_not_mutated(self):
        kernel, inputs = get_kernel("daxpy").instantiate(8)
        before = inputs["y"].copy()
        run_reference(kernel, inputs)
        np.testing.assert_array_equal(inputs["y"], before)

    def test_subscript_out_of_range(self):
        from repro.kernels.suite import gat
        kernel = Kernel(
            "bad",
            (ArrayDecl("a", 4), ArrayDecl("ix", 4)),
            (Loop("i", 4, (
                Assign(at("a", i=1), gat("a", at("ix", i=1))),
            )),),
        )
        with pytest.raises(KernelError, match="out of range"):
            run_reference(kernel, {
                "a": np.zeros(4), "ix": np.array([0.0, 1.0, 2.0, 99.0]),
            })

    def test_non_integral_subscript(self):
        from repro.kernels.suite import gat
        kernel = Kernel(
            "bad2",
            (ArrayDecl("a", 4), ArrayDecl("ix", 4)),
            (Loop("i", 4, (
                Assign(at("a", i=1), gat("a", at("ix", i=1))),
            )),),
        )
        with pytest.raises(KernelError, match="non-integral"):
            run_reference(kernel, {
                "a": np.zeros(4), "ix": np.array([0.0, 1.5, 2.0, 3.0]),
            })


class TestReductionSemantics:
    def test_init_value_respected(self):
        kernel = Kernel(
            "red",
            (ArrayDecl("x", 4), ArrayDecl("out", 1)),
            (Loop("i", 4, (
                Reduce("+", at("out"), at("x", i=1), init=100.0),
            )),),
        )
        out = run_reference(kernel, {
            "x": np.ones(4), "out": np.zeros(1),
        })
        assert out["out"][0] == 104.0

    def test_reduce_alongside_assign(self):
        kernel = Kernel(
            "both",
            (ArrayDecl("x", 4), ArrayDecl("y", 4), ArrayDecl("out", 1)),
            (Loop("i", 4, (
                Assign(at("y", i=1), at("x", i=1)),
                Reduce("+", at("out"), at("x", i=1)),
            )),),
        )
        x = np.array([1.0, 2.0, 3.0, 4.0])
        out = run_reference(kernel, {
            "x": x, "y": np.zeros(4), "out": np.zeros(1),
        })
        np.testing.assert_array_equal(out["y"], x)
        assert out["out"][0] == 10.0

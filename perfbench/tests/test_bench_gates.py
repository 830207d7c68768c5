"""The correctness gate: pinned values and verdicts count as operations."""

import run
import worker
import workloads


def test_perturbed_pin_makes_fail_ratio_positive():
    pins = dict(workloads.PINS, ch_3half_sha256="0" * 64)
    result = worker.run_workload("chern-exact", 7, pins=pins)
    assert result["failed"] == ["ch_3half_sha256"]
    assert len(result["failed"]) / result["attempted"] > 0


def _float_report(residual):
    tasks = {t: {"passed": True} for t in ("conditions", "algebra", "sphere",
                                           "chern", "coaction")}
    tasks["sphere"]["theta"] = complex(-0.28, 0.96)
    tasks["chern"].update(
        components={"ch2": {"n_terms": 172032}},
        vanishing={"ch0_zero": True, "ch1_zero": True, "ch_half_zero": True})
    tasks["coaction"].update(
        coinvariants={"dim_degree_2": 6},
        one_sided_fault={"max_residual": 1.0})
    tasks["conditions"]["reports"] = [{"max_residual": 0.0}] * 20
    tasks["sphere"]["reports"] = [{"max_residual": residual}]
    return {"results": [({"passed": True, "tasks": tasks}, {})]}


def test_float_gate_counts_each_residual_and_skips_the_fault():
    ok = workloads.report_gate(_float_report(1e-12), workloads.PINS)
    assert all(good for _, good in ok)
    assert sum(name.startswith("residual") for name, _ in ok) == 22
    bad = workloads.report_gate(_float_report(1e-6), workloads.PINS)
    assert [name for name, good in bad if not good] == ["residual20"]


def test_sweep_gate_checks_eigenphase_and_coinvariants():
    report = {"passed": True, "spec": {"params": workloads.MAIN},
              "tasks": {"sphere": {"passed": True, "theta": "(-7/25,24/25)"},
                        "coaction": {"passed": True,
                                     "coinvariants": {"dim_degree_2": 6}}}}
    out = {"results": [(report, {})]}
    assert all(ok for _, ok in workloads.sweep_gate(out, workloads.PINS))
    pins = dict(workloads.PINS, coinvariant_dim_degree_2=7)
    failed = [n for n, ok in workloads.sweep_gate(out, pins) if not ok]
    assert failed == [f"{workloads.MAIN}:coinvariant_dim_degree_2"]


def test_byte_identity_is_one_operation_per_repeat():
    same = [{"canonical_sha256": "a"}] * 3
    assert run.identity_ops(same) == [("repeat1:canonical_bytes", True),
                                      ("repeat2:canonical_bytes", True)]
    differ = [{"canonical_sha256": "a"}, {"canonical_sha256": "b"}]
    assert run.identity_ops(differ) == [("repeat1:canonical_bytes", False)]
    assert run.identity_ops([{"canonical_sha256": None}] * 2) == []

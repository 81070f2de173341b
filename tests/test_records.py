"""The records: each report passes exactly when its checks hold, and a
field context is one read-only object per (p, n), equal only to itself."""

import pytest

from triweil import cli, digits, kernel_curve, motif_graph, proof_lab, weil
from triweil.ff import FieldCtx, build_field
from triweil.report import Check, passed

REPORTS = {
    "DivisibilityReport": lambda: digits.verify_divisibility(7),
    "MinimizerReport": lambda: proof_lab.check_minimizer_structure(7),
    "KernelReport": lambda: kernel_curve.kernel_report(build_field(3, 5), 1),
    "FamilyReport": lambda: weil.check_family(5),
    "GraphReport": motif_graph.graph_report,
    "RunReport": lambda: cli._run(cli._parse(cli._build_parser(), ["graph-verify"])),
}


@pytest.mark.parametrize("name", REPORTS)
def test_report_passes_exactly_when_every_check_holds(name):
    rep = REPORTS[name]()
    assert type(rep).__name__ == name
    assert rep.checks and passed(rep.checks)
    failing = rep._replace(checks=[*rep.checks, Check("deliberately false", 1, 2)])
    assert not passed(failing.checks)
    if name == "RunReport":
        assert '"passed": false' in failing.to_json()
        assert "VERIFICATION FAILED" in failing.to_text()
        assert '"passed": true' in rep.to_json()


def test_field_context_is_read_only():
    ctx = build_field(3, 5)
    for name in ("q", "exp", "trace_table", "unknown"):
        with pytest.raises(AttributeError):
            setattr(ctx, name, None)
    with pytest.raises(AttributeError):
        del ctx.log
    assert ctx.q == 243 and len(ctx.exp) == 242


def test_field_context_is_shared_and_equal_only_to_itself():
    ctx = build_field(3, 5)
    assert build_field(3, 5) is ctx
    twin = FieldCtx(
        p=ctx.p, n=ctx.n, q=ctx.q, modulus=ctx.modulus, gen=ctx.gen,
        exp=ctx.exp, log=ctx.log, trace_table=ctx.trace_table,
    )
    assert not twin == ctx
    assert twin not in {ctx: None}
    # the tables cached for one context are not served for its twin
    tables = weil._trace_of_powers(ctx, 29)
    assert weil._trace_of_powers(twin, 29) is not tables
    with pytest.raises(TypeError):
        FieldCtx(ctx.p, ctx.n, ctx.q, ctx.modulus, ctx.gen, ctx.exp, ctx.log, ctx.trace_table)

#!/usr/bin/env python3
"""Rebuild EXPERIMENTS.md's measured tables from the paper goldens.

    python3 scripts/gen_experiments.py           # rewrite the blocks
    python3 scripts/gen_experiments.py --check   # exit 1 on drift

EXPERIMENTS.md marks each generated block with a pair of lines,
`<!-- gen:NAME -->` and `<!-- /gen:NAME -->`. The function NAME in
BLOCKS below renders it from tests/golden/paper/*.stdout, which the
`paper` ctest label pins to the figure harnesses' output. Prose
outside the blocks is left as written, so a number quoted there is
not checked: put measured numbers inside a block.
"""

import difflib
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden", "paper")
DOC = os.path.join(ROOT, "EXPERIMENTS.md")

# The paper's headline figures (Sections 5.1-5.6), quoted next to the
# measured ones.
PAPER = {
    "c_over_a": "2.4×",
    "c_over_s": "1.6×",
    "delay_c_vs_a": "−60.8%",
    "delay_c_vs_s": "−15.6%",
    "energy_s_vs_a": "36.6%",
    "energy_c_vs_s": "31.7%",
    "energy_c_vs_a": "56.9%",
    "model3_a_over_s": "+74.6%",
}


def golden(bench):
    with open(os.path.join(GOLDEN, bench + ".stdout"),
              encoding="utf-8") as f:
        return f.read()


def grab(pattern, text, what):
    """The groups of @p pattern's first match in @p text."""
    match = re.search(pattern, text, re.M)
    if not match:
        sys.exit("gen_experiments: no %s in the golden output" % what)
    return match.groups()


def verdict(text, bench):
    """'**All N checks pass.**', or the failing count."""
    passed = len(re.findall(r"^\s+\[PASS\]", text, re.M))
    failed = len(re.findall(r"^\s+\[FAIL\]", text, re.M))
    if failed or "%s: all shape checks PASSED" % bench not in text:
        return "**%d of %d checks fail.**" % (failed, passed + failed)
    return "**All %d checks pass.**" % passed


def passes(text, check):
    """Whether the shape check starting with @p check passed."""
    status, = grab(r"^\s+\[(PASS|FAIL)\] " + re.escape(check), text,
                   "check '%s'" % check)
    return status == "PASS"


def mark(ok):
    return "✓" if ok else "✗"


def pct(value):
    """A signed percentage with a real minus sign."""
    return ("−" if value < 0 else "+") + "%.1f%%" % abs(value)


def table(header, rows):
    lines = ["| " + " | ".join(header) + " |",
             "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(lines)


def table1():
    bench = "bench_table1_datasets"
    text = golden(bench)
    rows = re.findall(r"^(\w+)\s+([CEM]\d)\s+(\d+)\s+(\d+)\s+(\d+)\s+"
                      r"([\d.]+)\s*$", text, re.M)
    body = table(["Case", "Dataset", "Segment length", "Segments",
                  "Class +1", "Events/s"],
                 [[sym, name, length, count, pos, rate]
                  for name, sym, length, count, pos, rate in rows])
    return body + "\n\n" + verdict(text, bench)


def fig4():
    bench = "bench_fig4_alu_modes"
    text = golden(bench)
    modes = ["serial", "parallel", "pipeline"]
    optimal = {m: [] for m in modes}
    for name, *cells in re.findall(
            r"^(\w+)\s+(\d+\*?)\s+(\d+\*?)\s+(\d+\*?)\s*$", text, re.M):
        for mode, cell in zip(modes, cells):
            if cell.endswith("*"):
                optimal[mode].append(name)
    ratio, = grab(r"above serial \(x([\d.]+)\)", text, "DWT ratio")
    similar = all(passes(text, "%s serial and pipeline are similar" % m)
                  for m in ("Max", "Min", "Czero"))
    rows = [
        ["Most components optimal in serial mode",
         ", ".join(optimal["serial"]) + " serial-optimal"],
        ["Std and DWT optimal in pipeline mode",
         ", ".join(optimal["pipeline"]) + " pipeline-optimal (Std via "
         "the cheap pipelined non-restoring sqrt; DWT via streaming "
         "MACs)"],
        ["Max/Min/Czero serial ≈ pipeline",
         "within ±25% " + mark(similar)],
        ["Parallel DWT ≈ 2 orders of magnitude above serial",
         "×%.0f %s" % (float(ratio),
                       mark(passes(text, "parallel DWT is")))],
        ["Parallel never optimal",
         mark(not optimal["parallel"])],
    ]
    return (table(["Paper claim", "Measured"], rows) + "\n\n" +
            verdict(text, bench))


def averages(text, label_pattern, fields):
    """The bracketed per-setting averages of a sweep harness."""
    line, = grab(r"^averages: (.*)$", text, "averages line")
    out = []
    for label, body in re.findall(r"\[(" + label_pattern + r"): ([^\]]*)\]",
                                  line):
        values = dict(re.findall(r"([\w/-]+)=([\d.]+)", body))
        out.append((label, [values[f] for f in fields]))
    return out


def fig8():
    bench = "bench_fig8_process_tech"
    text = golden(bench)
    rows = averages(text, r"\d+nm", ["S/A", "C/A", "C/S"])
    body = table(["Node", "S/A", "C/A", "C/S"],
                 [[label.replace("nm", " nm")] + values
                  for label, values in rows])
    at90 = dict(rows)["90nm"]
    return (body + "\n\nAt 90 nm, C/A = %s× (paper %s) and C/S = %s× "
            "(paper %s). %s" % (at90[1], PAPER["c_over_a"], at90[2],
                                PAPER["c_over_s"], verdict(text, bench)))


def fig9():
    bench = "bench_fig9_wireless_models"
    text = golden(bench)
    radios = dict(re.findall(r"^-- (Model \d) \(([^)]*)\) --$", text,
                             re.M))
    rows = averages(text, r"Model \d", ["S/A", "C/best-single"])
    body = table(["Radio", "S/A", "C vs best single-end"],
                 [["%s (%s)" % (label, radios[label]), values[0],
                   values[1] + "×"] for label, values in rows])
    crossover, = grab(r"the trend reverses.*measured ([\d.]+)x\)", text,
                      "Model 3 crossover")
    return (body + "\n\nUnder Model 3, A outlives S by %.2f× (paper "
            "1.75×). %s" % (float(crossover), verdict(text, bench)))


def fig10_numbers():
    text = golden("bench_fig10_delay")
    return text, grab(r"^averages: A=([\d.]+) ms, S=([\d.]+) ms, "
                      r"C=([\d.]+) ms \(C vs A: (-?[\d.]+)%, C vs S: "
                      r"(-?[\d.]+)%\)", text, "delay averages")


def fig10():
    text, (a, s, c, vs_a, vs_s) = fig10_numbers()
    return ("Averages: A = %s ms, S = %s ms, C = %s ms. C vs A: %s "
            "(paper %s); C vs S: %s (paper %s). %s"
            % (a, s, c, pct(float(vs_a)), PAPER["delay_c_vs_a"],
               pct(float(vs_s)), PAPER["delay_c_vs_s"],
               verdict(text, "bench_fig10_delay")))


def fig11_numbers():
    text = golden("bench_fig11_energy_breakdown")
    return text, grab(r"^averages: A=([\d.]+) uJ, S=([\d.]+) uJ, "
                      r"C=([\d.]+) uJ \(S saves ([\d.]+)% vs A; C saves "
                      r"([\d.]+)% vs S, ([\d.]+)% vs A\)", text,
                      "energy averages")


def fig11():
    text, (a, s, c, s_vs_a, c_vs_s, c_vs_a) = fig11_numbers()
    return ("Averages: A = %s µJ (pure transmission), S = %s µJ "
            "(compute, radio negligible), C = %s µJ. S saves %s%% vs A "
            "(paper %s); C saves %s%% vs S (paper %s) and %s%% vs A "
            "(paper %s). %s"
            % (a, s, c, s_vs_a, PAPER["energy_s_vs_a"], c_vs_s,
               PAPER["energy_c_vs_s"], c_vs_a, PAPER["energy_c_vs_a"],
               verdict(text, "bench_fig11_energy_breakdown")))


def fig12():
    bench = "bench_fig12_cuts"
    text = golden(bench)
    cases = len(re.findall(r"^[CEM]\d\s+\d+\(", text, re.M))
    above, below = grab(r"^trivial cut: above both single ends in (\d+) "
                        r"case\(s\), below both in (\d+) case\(s\)$",
                        text, "trivial-cut line")
    best = passes(text, "the Automatic XPro Generator's cut gives")
    return ("The generator's cut gives the longest lifetime in %s of %d "
            "cases. The trivial cut is above both single ends in %s "
            "cases and below both in %s. %s"
            % (cases if best else "fewer than all", cases, above, below,
               verdict(text, bench)))


def fig13():
    bench = "bench_fig13_aggregator_overhead"
    text = golden(bench)
    a, c, ratio = grab(r"^average aggregator overhead: A=([\d.]+) "
                       r"uJ/event, C=([\d.]+) uJ/event \(C/A = "
                       r"([\d.]+)\)$", text, "aggregator averages")
    hours, = grab(r"running XPro alone: (\d+) hours", text,
                  "phone lifetime")
    return ("Average aggregator energy per event: A = %s µJ, C = %s µJ "
            "(C/A = %s; paper: under 0.5). Worst-case phone battery "
            "life running XPro alone: %s h (paper bar: 52 h). %s"
            % (a, c, ratio, hours, verdict(text, bench)))


def accuracy():
    bench = "bench_accuracy"
    text = golden(bench)
    rows = re.findall(r"^([CEM]\d)\s+(\w+)\s+([\d.]+%)\s+([\d.]+%)\s+"
                      r"(\d+)\s+(\d+)\s+([\d.]+)\s+([\d.]+%)\s*$", text,
                      re.M)
    body = table(["Case", "Dataset", "Train accuracy", "Test accuracy",
                  "SVs/base", "Fixed-point agreement"],
                 [[sym, name, train, test, svs, agree]
                  for sym, name, train, test, _, _, svs, agree in rows])
    return body + "\n\n" + verdict(text, bench)


def ablation():
    bench = "bench_ablation_design_rules"
    text = golden(bench)
    modes = grab(r"optimal=([\d.]+)\s+all-serial=([\d.]+)\s+"
                 r"all-pipeline=([\d.]+)\s+all-parallel=([\d.]+)", text,
                 "ALU-mode ablation")
    with_var, without, saved = grab(r"with=([\d.]+)\s+without=([\d.]+) "
                                    r"\(([\d.]+)% saved\)", text,
                                    "Std-reuse ablation")
    wireless, per_edge, inflation = grab(
        r"wireless=([\d.]+) uJ vs per-edge ([\d.]+) uJ \(x([\d.]+)",
        text, "broadcast ablation")
    db4, haar, acc_db4, acc_haar = grab(
        r"DWT-L1 cell ([\d.]+) nJ \(Db4\) vs ([\d.]+) nJ \(Haar\); "
        r"accuracy ([\d.]+%) vs ([\d.]+%)", text, "wavelet ablation")
    rows = [
        ["ALU modes: optimal / all-serial / all-pipeline / all-parallel",
         " / ".join(modes) + " µJ — the Fig. 4 parallel blow-up at "
         "engine scale"],
        ["Std reuses Var (rule 3) off",
         "%s vs %s µJ (reuse saves %s%%)" % (without, with_var, saved)],
        ["Per-edge instead of broadcast wireless accounting",
         "%s vs %s µJ wireless (×%s inflation)"
         % (per_edge, wireless, inflation)],
        ["Haar instead of Db4 wavelets",
         "DWT-L1 cell %s nJ vs %s nJ; E1 accuracy %s vs %s"
         % (haar, db4, acc_haar, acc_db4)],
    ]
    return (table(["Ablation", "Result"], rows) + "\n\n" +
            verdict(text, bench))


def headline():
    fig8_text = golden("bench_fig8_process_tech")
    at90 = dict(averages(fig8_text, r"\d+nm", ["C/A", "C/S"]))["90nm"]
    fig10_text, (_, _, _, vs_a, vs_s) = fig10_numbers()
    _, (_, _, _, _, _, c_vs_a) = fig11_numbers()
    crossover, = grab(r"the trend reverses.*measured ([\d.]+)x\)",
                      golden("bench_fig9_wireless_models"),
                      "Model 3 crossover")
    in_bound = passes(fig10_text, "all engines meet the < 4 ms")
    rows = [
        ["Battery life C vs A (90 nm, M2)", PAPER["c_over_a"],
         at90[0] + "×"],
        ["Battery life C vs S (90 nm, M2)", PAPER["c_over_s"],
         at90[1] + "×"],
        ["Delay C vs A", PAPER["delay_c_vs_a"], pct(float(vs_a))],
        ["Delay C vs S", PAPER["delay_c_vs_s"], pct(float(vs_s))],
        ["Sensor energy C vs A", "−" + PAPER["energy_c_vs_a"],
         "−%s%%" % c_vs_a],
        ["Model 3 crossover A vs S", PAPER["model3_a_over_s"],
         "+%.0f%%" % (100.0 * (float(crossover) - 1.0))],
        ["All engines < 4 ms", "✓", mark(in_bound)],
    ]
    return table(["Claim", "Paper", "Measured"], rows)


BLOCKS = {f.__name__: f for f in (table1, fig4, fig8, fig9, fig10, fig11,
                                  fig12, fig13, accuracy, ablation,
                                  headline)}


def render(doc):
    """@p doc with every generated block rebuilt."""
    def block(match):
        name = match.group(1)
        if name not in BLOCKS:
            sys.exit("gen_experiments: unknown block '%s'" % name)
        return "<!-- gen:%s -->\n%s\n<!-- /gen:%s -->" % (
            name, BLOCKS[name](), name)

    out = re.sub(r"<!-- gen:(\w+) -->\n.*?<!-- /gen:\1 -->",
                         block, doc, flags=re.S)
    missing = set(BLOCKS) - set(re.findall(r"<!-- gen:(\w+) -->", doc))
    if missing:
        sys.exit("gen_experiments: EXPERIMENTS.md lacks block(s) %s"
                 % ", ".join(sorted(missing)))
    return out


def main():
    check = sys.argv[1:] == ["--check"]
    if sys.argv[1:] and not check:
        sys.exit(__doc__)
    with open(DOC, encoding="utf-8") as f:
        doc = f.read()
    new = render(doc)
    if check:
        if new != doc:
            sys.stdout.writelines(difflib.unified_diff(
                doc.splitlines(True), new.splitlines(True),
                "EXPERIMENTS.md", "regenerated"))
            print("EXPERIMENTS.md drifts from tests/golden/paper; run "
                  "python3 scripts/gen_experiments.py")
            return 1
        return 0
    if new != doc:
        with open(DOC, "w", encoding="utf-8") as f:
            f.write(new)
    return 0


if __name__ == "__main__":
    sys.exit(main())

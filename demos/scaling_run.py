"""Timing sweep over the synthetic chain family.

kb(n) stacks n classes in a subclass chain where each level contradicts
the previous level's flying behaviour, forcing minimal impacts as large
as n.  The sweep times min-all solving as n grows and writes a CSV.

Run as: python demos/scaling_run.py [max_n]
"""

import io
import sys

from crsolve import (
    SyntheticSpec,
    all_min_sum,
    build_problem,
    gen_synthetic,
    render_formula,
    run_bench,
    write_csv,
)

max_n = int(sys.argv[1]) if len(sys.argv) > 1 else 6

print("=== The chain family ===")
kb = gen_synthetic(4, 0)
print(f"kb(4,7): atoms {', '.join(kb.atom_names())}")
for c in kb.conditionals:
    cons = render_formula(c.consequent, kb.atoms)
    ant = render_formula(c.antecedent, kb.atoms)
    print(f"  ({cons} | {ant})")
print()

print("=== Minimal solutions grow with the chain ===")
for n in range(2, 6):
    minima = all_min_sum(build_problem(gen_synthetic(n, 0)))
    print(f"  kb({n},{2 * n - 1}): minimal sum {minima.minimal_sum}, vectors {minima.vectors}")
print()

print(f"=== Timing sweep (n = 2..{max_n}, median of 3 runs) ===")
specs = [SyntheticSpec(n, 0) for n in range(2, max_n + 1)]
records = run_bench(specs, repetitions=3, timeout_s=120)
buffer = io.StringIO()
write_csv(records, buffer)
print(buffer.getvalue())

"""Comparing the three minimality notions on a base with several minima.

The birds knowledge base is the smallest standard example where "the"
minimal solution does not exist: two vectors tie on total impact.  This
script contrasts sum-minimality, componentwise minimality, and minimality
of the induced rankings.

Run as: python demos/minimality_orderings.py
"""

from pathlib import Path

from crsolve import (
    all_min_sum,
    build_problem,
    enumerate_solutions,
    induced_ocf,
    ocf_min,
    parse_kb,
    pareto_min,
    render_table,
)

kb_path = Path(__file__).resolve().parent.parent / "kbs" / "birds.kb"
kb = parse_kb(kb_path.read_text())
problem = build_problem(kb)
solutions = enumerate_solutions(problem)

print("=== Rule 1 is never free ===")
least = min(v[0] for v in solutions.vectors)
print(f"least impact of rule 1 over all {len(solutions.vectors)} box solutions: {least}")
print("(rule 1 can never have impact 0: some bird world must pay for not flying)")
print()

print("=== All solutions within the box ===")
print(f"{len(solutions.vectors)} solutions; first five: {solutions.vectors[:5]}")
print()

print("=== Sum-minimal ===")
minima = all_min_sum(problem)
print(f"minimal total impact: {minima.minimal_sum}")
print(f"solutions: {minima.vectors}")
print()

print("=== Componentwise (Pareto) minimal ===")
pareto = pareto_min(problem)
print(f"solutions: {pareto.vectors}")
print()

print("=== Minimal induced rankings ===")
ocf_minimal = ocf_min(problem)
print(f"solutions: {ocf_minimal.vectors}")
print()

# The two sum-minimal vectors are componentwise incomparable, yet their
# induced rankings are not: one ranking sits below the other everywhere.
print("=== Why the ranking order breaks the tie ===")
for v in minima.vectors:
    # The table's rows run from the all-true world down, each a world's
    # literals and then its rank; reversed, they run in world-index order.
    rows = reversed(render_table(induced_ocf(kb, v)).splitlines())
    nonzero = {label: int(r) for label, r in (row.rsplit(maxsplit=1) for row in rows) if r != "0"}
    print(f"  {v} ranks the exceptional worlds as {nonzero}")
print()
print("Both vectors punish the same three worlds, but (1, 0, 1) never")
print("punishes harder, so it is the single minimum under the ranking order.")

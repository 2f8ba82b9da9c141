"""Craig interpolation (Theorem 4) and the paper's nested examples (1.1 / 4.1).

Part 1 extracts a Δ0 interpolant from a focused determinacy proof.
Part 2 builds the nested specifications of Examples 1.1 and 4.1, evaluates the
flattening view in NRC, and checks semantically that the specifications hold
on ground-truth instances and implicitly define their outputs.  (Automatic
proof search for these nested witnesses is beyond the bundled prover — see
ARCHITECTURE.md, "Documented deviations and limitations" — so this example
exercises the specifications and semantics.)

Run with:  python examples/interpolation_and_nested_views.py
"""

from repro.interpolation.delta0 import interpolate
from repro.interpolation.partition import Partition
from repro.logic.free_vars import free_vars
from repro.logic.macros import negate
from repro.logic.semantics import eval_formula
from repro.proofs.search import ProofSearch
from repro.specs import examples


def interpolation_demo() -> None:
    problem = examples.intersection_view()
    phi, primed_phi, goal = problem.determinacy_hypotheses()
    proof = ProofSearch(max_depth=12).prove(problem.determinacy_goal())
    partition = Partition.of(
        problem.determinacy_goal(),
        left_delta=[negate(phi)],
        right_delta=[negate(primed_phi), goal],
    )
    theta = interpolate(proof, partition)
    print("interpolant for the intersection-view determinacy proof:")
    print("  ", theta)
    print("  free variables:", sorted(v.name for v in free_vars(theta)), "\n")


def nested_examples_demo() -> None:
    prob41 = examples.example_4_1()
    instance = examples.example_4_1_instance({"alice": (1, 2), "bob": (3,)})
    print("Example 4.1 — lossless flatten view determines the base relation")
    print("  B =", instance[prob41.output])
    print("  V =", instance[prob41.inputs[0]])
    print("  specification holds on the instance:", eval_formula(prob41.phi, instance))

    prob11 = examples.example_1_1()
    inst11 = examples.example_1_1_instance({"k1": (1, "k1"), "k2": (2,)})
    print("\nExample 1.1 — flatten view + key constraint determines the selection query")
    print("  Q =", inst11[prob11.output])
    print("  specification holds on the instance:", eval_formula(prob11.phi, inst11))
    print("  implicitly defines Q on the sampled instances:", prob11.check_implicitly_defines([inst11]))


if __name__ == "__main__":
    interpolation_demo()
    nested_examples_demo()

"""Decode orders, and why they change what gets generated.

A masked LM sees the whole context at once, so a run of masks can be
resolved in any order. Each order conditions later fills on earlier
commitments, which steers multi-token generations differently. This demo
prints the three built-in orders and then decodes the same two-mask
context under l2r and r2l against a scripted backend, showing how the
committed token changes the follow-up prediction.
"""

from clozegen import MockMaskedLM, build_masked_context, decode_order, generate_candidates
from clozegen.backends import TokenPrediction

print("decode orders (indices into the mask run)")
for m in (1, 3, 5, 6):
    row = " | ".join(
        f"{name}: {decode_order(name, m)}" for name in ("l2r", "r2l", "ctl")
    )
    print(f"  {m} masks   {row}")
print()

# one-indexed, the 5-mask cocktail-shaker order reads 1-5-2-4-3
print("ctl(5), one-indexed:", [i + 1 for i in decode_order("ctl", 5)])
print()

# A scripted backend for "the [MASK] [MASK] hums": decoding direction
# decides which word is committed first, and the conditioned second step
# lands somewhere different.
table = {
    ("the [MASK] [MASK] hums", 1): [TokenPrediction("old", 0.6)],
    ("the [MASK] [MASK] hums", 2): [TokenPrediction("fridge", 0.7)],
    ("the old [MASK] hums", 2): [TokenPrediction("fan", 0.8)],
    ("the [MASK] fridge hums", 1): [TokenPrediction("broken", 0.9)],
}
backend = MockMaskedLM(table=table)
info = backend.info()
masked = build_masked_context(
    ["the", "??", "??", "hums"], (1, 3), 2, info.mask_token, info.max_sequence_length
)

for strategy in ("l2r", "r2l"):
    order = decode_order(strategy, 2)
    candidate = generate_candidates(backend, [(masked, order)], 1, "geometric")[0]
    steps = ", ".join(f"{p:.1f}" for p in candidate.step_probabilities)
    print(f"{strategy}: {candidate.text!r}  (step probabilities in decode order: {steps})")

print()
print("l2r commits 'old' first and extends it; r2l commits 'fridge' first")
print("and the left mask is then predicted in its shadow.")

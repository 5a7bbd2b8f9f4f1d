"""Scoring candidates of different lengths on one scale.

The raw quality signal for a generated fill is the product of its
per-step probabilities. Products shrink with length, so a three-token
candidate can never beat a one-token candidate on the product alone.
Ranking therefore uses a length-normalized average of the step
probabilities: the r-th root of the product (geometric mean), or
alternatively the harmonic mean. A candidate is scored once, under the
request's average, when it is generated; ranking only sorts by that score.
"""

from clozegen import Candidate, rank_candidates, rank_score, score_candidate


def candidate(text, probs, avg):
    return Candidate(
        token_strings=text.split(),
        text=text,
        step_probabilities=list(probs),
        rank_score=rank_score(probs, avg),
    )


print("products collapse with length:")
for probs in ([0.8], [0.8, 0.8], [0.8, 0.8, 0.8]):
    print(f"  probs={probs}: product={score_candidate(probs):.4f} "
          f"geometric rank={rank_score(probs, 'geometric'):.4f}")
print()

print("the two averages can disagree when probabilities are uneven:")
probs = [1.0, 0.25]
print(f"  probs={probs}: geometric={rank_score(probs, 'geometric'):.3f} "
      f"harmonic={rank_score(probs, 'harmonic'):.3f}")
print()

fills = [
    ("steady", [0.45]),
    ("spiky pair", [1.0, 0.25]),
    ("long good fill", [0.9, 0.9, 0.9]),
    ("Echo", [0.7]),
    ("echo", [0.6]),
]
answer = "calm"  # a fill that copied the answer would drop out like a duplicate
for avg in ("geometric", "harmonic"):
    ranked = rank_candidates([candidate(text, probs, avg) for text, probs in fills], answer)
    print(f"{avg} ranking:")
    for c in ranked:
        print(f"  {c.rank_score:.4f}  {c.text!r}  (from {len(c.step_probabilities)} masks)")
    print()

print("notes: the duplicate 'echo' collapsed onto its better-scored copy,")
print("and the three-token candidate outranks shorter ones because every")
print("step was confident. Order moved between the averages; the set did not.")

"""One best-first entailment scan, fully audited.

Generated candidates often restate the answer (which would make two
options correct) or restate each other (which makes options free to
eliminate). The selector walks the candidates best-first and drops both
kinds: a candidate whose substituted sentence mutually entails the answer
sentence, and a candidate that mutually entails an already kept one. It
stops as soon as k are kept. "Mutually" is the load-bearing word: a pair
counts as entailing only when the classifier says entailment in BOTH
directions, so neutral and contradictory candidates always survive.
"""

from clozegen import ENTAILMENT, Candidate, MockNliClassifier, select_distractors

ANSWER = "open"
FRAME = "I {} the door."
CONTEXT = FRAME.format(ANSWER)


def candidate(text, prob):
    return Candidate(
        token_strings=text.split(),
        text=text,
        step_probabilities=[prob],
        product_score=prob,
        rank_score=prob,
        source_mask_count=1,
    )


candidates = [
    candidate("unlock", 0.95),   # a synonym of the answer
    candidate("shut", 0.90),
    candidate("seal", 0.85),     # a near-duplicate of "shut"
    candidate("stand by", 0.80), # entails the answer one way only
    candidate("paint", 0.75),
]

table = {}
def both(a, b):
    table[(FRAME.format(a), FRAME.format(b))] = ENTAILMENT
    table[(FRAME.format(b), FRAME.format(a))] = ENTAILMENT

both("unlock", ANSWER)
both("seal", "shut")
table[(FRAME.format("stand by"), CONTEXT)] = ENTAILMENT  # reverse stays neutral

nli = MockNliClassifier(table=table)
result = select_distractors(nli, CONTEXT, ANSWER, candidates, k=3)

print("candidates in rank order:", [c.text for c in candidates])
print("final distractors:      ", result.distractors)
print("underfilled:            ", result.underfilled)
print()
print("elimination trace:")
for entry in result.trace:
    print(f"  {entry.candidate!r} fell at {entry.stage} against {entry.counterpart!r}")
print()
print("'stand by' survived: its sentence entails the answer sentence, but")
print("not the other way around, and one-way agreement is not enough.")

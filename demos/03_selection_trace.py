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

from clozegen import ENTAILMENT, MockNliClassifier, select_distractors

ANSWER = "open"
FRAME = "I {} the door."
CONTEXT = FRAME.format(ANSWER)
SPAN = (FRAME.index("{}"), FRAME.index("{}") + len(ANSWER))  # where the answer sits


candidates = [  # best-ranked first, as the generator hands them over
    "unlock",    # a synonym of the answer
    "shut",
    "seal",      # a near-duplicate of "shut"
    "stand by",  # entails the answer one way only
    "paint",
]

table = {}
def both(a, b):
    table[(FRAME.format(a), FRAME.format(b))] = ENTAILMENT
    table[(FRAME.format(b), FRAME.format(a))] = ENTAILMENT

both("unlock", ANSWER)
both("seal", "shut")
table[(FRAME.format("stand by"), CONTEXT)] = ENTAILMENT  # reverse stays neutral

nli = MockNliClassifier(table=table)
result = select_distractors(nli, CONTEXT, candidates, k=3, answer_span=SPAN)

print("candidates in rank order:", candidates)
print("final distractors:      ", result.distractors)
print("underfilled:            ", result.underfilled)
print()
print("elimination trace:")
for entry in result.trace:
    print(f"  {entry.candidate!r} fell at {entry.stage} against {entry.counterpart!r}")
print()
print("'stand by' survived: its sentence entails the answer sentence, but")
print("not the other way around, and one-way agreement is not enough.")

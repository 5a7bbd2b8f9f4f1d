"""One request through the whole pipeline, on scripted backends.

The flow: map the answer's character span to tokens, pick how many masks
to try (the dispersion interval adds neighboring lengths), decode each
masked variant with branch-then-greedy search, merge and rank everything,
drop verbatim answer copies, then run the entailment selector on the
sentence containing the blank. The result carries the ranked candidates,
the final distractors and the elimination trace, and it renders into a
presentable multiple-choice item.
"""

import json

from clozegen import (
    GenerationConfig,
    MockMaskedLM,
    MockNliClassifier,
    generate_distractors,
    render_cloze,
    result_to_dict,
)
from clozegen.backends import TokenPrediction

CONTEXT = "The boy will open the door. Then he waits."
SPAN = (13, 17)  # "open"

table = {
    ("The boy will [MASK] the door. Then he waits.", 3):
        [TokenPrediction("open", 0.9), TokenPrediction("shut", 0.8), TokenPrediction("lock", 0.6)],
    ("The boy will [MASK] [MASK] the door. Then he waits.", 3):
        [TokenPrediction("slam", 0.9), TokenPrediction("force", 0.7)],
    ("The boy will slam [MASK] the door. Then he waits.", 4):
        [TokenPrediction("shut", 0.95)],
    ("The boy will force [MASK] the door. Then he waits.", 4):
        [TokenPrediction("ajar", 0.5)],
}
SENTENCE = "The boy will open the door."
nli_table = {
    ("The boy will shut the door.", SENTENCE): "entailment",
    ("The boy will shut the door.", "The boy will slam shut the door."): "entailment",
    ("The boy will slam shut the door.", "The boy will shut the door."): "entailment",
}

mlm = MockMaskedLM(table=table)
nli = MockNliClassifier(table=nli_table)
config = GenerationConfig(n_mask=0, dispersion=1, k=2, m_s=1, strategy="l2r", seed=0)

result = generate_distractors(CONTEXT, SPAN, config, mlm, nli)

print("ranked candidates:")
for c in result.all_candidates:
    print(f"  {c.rank_score:.4f}  {c.text!r}  probs={c.step_probabilities} "
          f"({len(c.step_probabilities)} masks)")
print()
print("distractors:", result.distractor_set.distractors)
print("eliminations:", [(e.candidate, e.stage) for e in result.distractor_set.trace])
print()

item = render_cloze(CONTEXT, SPAN, result.distractor_set, shuffle_seed=4)
print("rendered item:")
print(" ", item.stem)
for letter, option in zip("ABCD", item.options):
    marker = " <- answer" if letter == item.answer_letter else ""
    print(f"  {letter}. {option}{marker}")
print()
print("wire format (what the CLI writes, one line per request):")
print(json.dumps(result_to_dict(result), indent=2)[:400], "...")

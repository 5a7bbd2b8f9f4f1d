"""From a raw cloze passage to a generation-ready request.

Cloze datasets ship passages with several blanks. To generate distractors
for one question, every other blank must first be resolved, either with
the gold answers or with a model's top-1 fills, and the target blank gets
its gold answer back so the answer span can be masked. Sentence mode
narrows the context to the sentence holding the blank.
"""

import json
import tempfile
from pathlib import Path

from clozegen import MockMaskedLM, extract_sentence, fill_target, load_cloth, prepare_context

doc = {
    "article": "Maya packed her _ for the trip. The bus left at dawn. "
               "She forgot her _ at home.",
    "options": [
        ["suitcase", "piano", "garden", "engine"],
        ["ticket", "river", "cloud", "ladder"],
    ],
    "answers": ["A", "A"],
}

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "sample0001.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    passage = list(load_cloth(path))[0]

print(f"passage {passage.id}: {len(passage.questions)} questions")
print("  raw:", passage.text_with_blanks)
for i, q in enumerate(passage.questions):
    print(f"  question {i}: answer={q.answer!r} distractors={q.distractors}")
print()

prepared = prepare_context(passage, 1, input_mode="passage", prefill_mode="gold")
print("gold prefill, target question 1:")
print("  ", prepared.context)

context, span = fill_target(prepared, passage.questions[1].answer)
print("after restoring the gold answer for masking:")
print("  ", context)
print("   answer span:", span, "->", repr(context[span[0]:span[1]]))
print()

prepared_s = prepare_context(passage, 1, input_mode="sentence", prefill_mode="gold")
print("sentence mode narrows the same request to:")
print("  ", prepared_s.context)
print()

# model prefill asks the backend for a top-1 fill per non-target blank,
# committing left to right; here the mock falls back to its vocabulary
mlm = MockMaskedLM(vocabulary=["bag", "coat", "map"])
prepared_m = prepare_context(
    passage, 1, input_mode="passage", prefill_mode="model", mlm_backend=mlm
)
print("model prefill resolved the other blank to a backend prediction:")
print("  ", prepared_m.context)
print()

sentence, adjusted = extract_sentence(context, span)
print("the entailment stage compares inside the blank's own sentence:")
print("  ", sentence, "   span ->", repr(sentence[adjusted[0]:adjusted[1]]))

"""Hand-computed elimination scenarios over scripted entailment tables.

Each scenario fixes a ranked candidate list, an entailment table over the
instantiated sentences, and the expected distractors/trace worked out by
hand before implementation. The frame is "I <word> the door." with gold
answer "open". The lone-wave, ride-along, waiting-candidate (one behind an
undecided candidate) and lone-chain scenarios also pin ``batches``: the pairs
of each NLI batch, as (premise word, hypothesis word), worked out by hand too.
"""

from clozegen.backends import CONTRADICTION, ENTAILMENT, MockNliClassifier

ANSWER = "open"
FRAME_PREFIX = "I "
FRAME_SUFFIX = " the door."


def instantiate(word):
    return FRAME_PREFIX + word + FRAME_SUFFIX


CONTEXT = instantiate(ANSWER)
ANSWER_SPAN = (len(FRAME_PREFIX), len(FRAME_PREFIX) + len(ANSWER))


def _both(table, a, b, label=ENTAILMENT):
    table[(instantiate(a), instantiate(b))] = label
    table[(instantiate(b), instantiate(a))] = label


def _one_way(table, a, b, label):
    table[(instantiate(a), instantiate(b))] = label


def _scenarios():
    scenarios = []

    # 1. two answer-stage removals, three pairwise removals, one surplus
    table = {}
    _both(table, "unlock", ANSWER)
    _both(table, "crack", ANSWER)
    _both(table, "seal", "shut")
    _both(table, "paint", "lift")
    _both(table, "kick", "slam")
    scenarios.append(
        dict(
            name="two-stage-removals-with-surplus",
            candidates=["unlock", "shut", "lift", "seal", "slam",
                        "crack", "paint", "kick", "push", "hold"],
            table=table,
            k=4,
            expected=["shut", "lift", "slam", "push"],
            expected_trace=[
                ("unlock", "answer-entailment", ANSWER),
                ("crack", "answer-entailment", ANSWER),
                ("seal", "pairwise-entailment", "shut"),
                ("paint", "pairwise-entailment", "lift"),
                ("kick", "pairwise-entailment", "slam"),
            ],
            underfilled=False,
        )
    )

    # 2. forward entailment with neutral reverse keeps the candidate
    table = {}
    _one_way(table, "stand", ANSWER, ENTAILMENT)
    # reverse direction left to the neutral default
    scenarios.append(
        dict(
            name="one-way-entailment-retained",
            candidates=["stand", "take"],
            table=table,
            k=2,
            expected=["stand", "take"],
            expected_trace=[],
            underfilled=False,
        )
    )

    # 3. mutual contradiction keeps the candidate
    table = {}
    _both(table, "close", ANSWER, CONTRADICTION)
    scenarios.append(
        dict(
            name="contradiction-retained",
            candidates=["close", "take"],
            table=table,
            k=2,
            expected=["close", "take"],
            expected_trace=[],
            underfilled=False,
        )
    )

    # 4. of a mutually entailing pair, the lower-ranked member is dropped
    table = {}
    _both(table, "lift", "raise")
    scenarios.append(
        dict(
            name="pairwise-removes-lower-ranked",
            candidates=["lift", "raise", "shut"],
            table=table,
            k=2,
            expected=["lift", "shut"],
            expected_trace=[("raise", "pairwise-entailment", "lift")],
            underfilled=False,
        )
    )

    # 5. no entailments anywhere: plain top-k prefix
    scenarios.append(
        dict(
            name="no-entailments-prefix",
            candidates=["shut", "lift", "slam"],
            table={},
            k=2,
            expected=["shut", "lift"],
            expected_trace=[],
            underfilled=False,
        )
    )

    # 6. every candidate mirrors the answer: nothing survives
    table = {}
    for word in ("unlock", "unbolt", "unlatch"):
        _both(table, word, ANSWER)
    scenarios.append(
        dict(
            name="all-entail-answer",
            candidates=["unlock", "unbolt", "unlatch"],
            table=table,
            k=3,
            expected=[],
            expected_trace=[
                ("unlock", "answer-entailment", ANSWER),
                ("unbolt", "answer-entailment", ANSWER),
                ("unlatch", "answer-entailment", ANSWER),
            ],
            underfilled=True,
        )
    )

    # 7. all pairs mutually entail: only the top candidate remains
    table = {}
    _both(table, "shut", "seal")
    _both(table, "shut", "bar")
    _both(table, "seal", "bar")
    scenarios.append(
        dict(
            name="all-pairs-entail",
            candidates=["shut", "seal", "bar"],
            table=table,
            k=3,
            expected=["shut"],
            expected_trace=[
                ("seal", "pairwise-entailment", "shut"),
                ("bar", "pairwise-entailment", "shut"),
            ],
            underfilled=True,
        )
    )

    # 8. k=1 keeps the top survivor and never scans the rest
    table = {}
    _both(table, "seal", "shut")
    scenarios.append(
        dict(
            name="k1-top-survivor",
            candidates=["shut", "seal", "lift"],
            table=table,
            k=1,
            expected=["shut"],
            expected_trace=[],
            underfilled=False,
        )
    )

    # 9. chain: "raise" falls to "lift", "hoist" only entails the removed
    # "raise", so it survives against the kept set
    table = {}
    _both(table, "raise", "lift")
    _both(table, "hoist", "raise")
    scenarios.append(
        dict(
            name="chain-entailment-not-transitive",
            candidates=["lift", "raise", "hoist"],
            table=table,
            k=3,
            expected=["lift", "hoist"],
            expected_trace=[("raise", "pairwise-entailment", "lift")],
            underfilled=True,
        )
    )

    # 10. neutral-forward, entailment-reverse also keeps the candidate
    table = {}
    _one_way(table, ANSWER, "budge", ENTAILMENT)
    scenarios.append(
        dict(
            name="reverse-only-entailment-retained",
            candidates=["budge"],
            table=table,
            k=1,
            expected=["budge"],
            expected_trace=[],
            underfilled=False,
        )
    )

    # 11. empty candidate list degenerates to an underfilled empty set
    scenarios.append(
        dict(
            name="empty-candidates",
            candidates=[],
            table={},
            k=3,
            expected=[],
            expected_trace=[],
            underfilled=True,
        )
    )

    # 12. answer-stage removal happens even for low-ranked candidates
    table = {}
    _both(table, "push", ANSWER)
    scenarios.append(
        dict(
            name="late-answer-removal",
            candidates=["shut", "lift", "push"],
            table=table,
            k=3,
            expected=["shut", "lift"],
            expected_trace=[("push", "answer-entailment", ANSWER)],
            underfilled=True,
        )
    )

    # 13. a lone wave's extra pair is wasted: in wave 1 "unlock"'s forward
    # answer pair brings its forward pair against the undecided "shut". Both
    # entail, so wave 2 holds only "unlock"'s reverse answer pair, which
    # brings the rest of its chain: its reverse pair against the now kept
    # "shut". The reverse answer pair entails, "unlock" falls at the answer
    # stage, both pairs against "shut" are wasted, and the trace names the
    # answer although "unlock" and "shut" entail each other as well
    table = {}
    _both(table, "unlock", ANSWER)
    _both(table, "unlock", "shut")
    scenarios.append(
        dict(
            name="lone-wave-extra-pair-wasted",
            candidates=["shut", "unlock"],
            table=table,
            k=2,
            expected=["shut"],
            expected_trace=[("unlock", "answer-entailment", ANSWER)],
            underfilled=True,
            batches=[
                [("shut", ANSWER), ("unlock", ANSWER), ("unlock", "shut")],
                [(ANSWER, "unlock"), ("shut", "unlock")],
            ],
        )
    )

    # 14. an extra pair saves a pass: in wave 1 "stand"'s forward answer pair
    # brings its pair against the undecided "shut". Wave 2 is lone: it holds
    # the reverse of "stand"'s forward entailment, with no chain left to
    # bring. That reverse is neutral and the pair against "shut" is already
    # known, so "stand" is kept after two passes instead of three, and "lift"
    # is never reached
    table = {}
    _one_way(table, "stand", ANSWER, ENTAILMENT)
    scenarios.append(
        dict(
            name="lone-wave-extra-pair-saves-a-pass",
            candidates=["shut", "stand", "lift"],
            table=table,
            k=2,
            expected=["shut", "stand"],
            expected_trace=[],
            underfilled=False,
            batches=[
                [("shut", ANSWER), ("stand", ANSWER), ("stand", "shut")],
                [(ANSWER, "stand")],
            ],
        )
    )

    # 15. a forward pair's ride-along saves a pass: "unlock" and "crack" fall
    # at the answer stage, so wave 3 reaches "stand" and "lift" with "shut"
    # kept. Each sends its answer pair and, since that pair is a forward one,
    # its pair against "shut" with it. All four are neutral, so "stand" is
    # kept and wave 4 holds only "lift" against it: four passes, not five.
    # In wave 1 the ride-alongs of "unlock" and "crack", against the
    # undecided "shut", are wasted when they fall
    table = {}
    _both(table, "unlock", ANSWER)
    _both(table, "crack", ANSWER)
    scenarios.append(
        dict(
            name="forward-ride-along-saves-a-pass",
            candidates=["shut", "unlock", "crack", "stand", "lift"],
            table=table,
            k=3,
            expected=["shut", "stand", "lift"],
            expected_trace=[
                ("unlock", "answer-entailment", ANSWER),
                ("crack", "answer-entailment", ANSWER),
            ],
            underfilled=False,
            batches=[
                [("shut", ANSWER), ("unlock", ANSWER), ("unlock", "shut"),
                 ("crack", ANSWER), ("crack", "shut")],
                [(ANSWER, "unlock"), (ANSWER, "crack")],
                [("stand", ANSWER), ("stand", "shut"), ("lift", ANSWER), ("lift", "shut")],
                [("lift", "stand")],
            ],
        )
    )

    # 16. a forward pair's ride-along is wasted: in wave 3 "stand" sends its
    # pair against "shut" with its forward answer pair, but that pair and its
    # reverse both entail, so "stand" falls at the answer stage. The trace
    # names the answer although "stand" and "shut" entail each other as well.
    # Wave 4 holds two asks, so neither brings a chain: "stand"'s reverse
    # answer pair and the pair of "lift", which has cleared the answer and
    # "shut", against "stand", wasted as well when "stand" falls. As in 15,
    # wave 1's ride-alongs of "unlock" and "crack" are wasted
    table = {}
    _both(table, "unlock", ANSWER)
    _both(table, "crack", ANSWER)
    _both(table, "stand", ANSWER)
    _both(table, "stand", "shut")
    scenarios.append(
        dict(
            name="forward-ride-along-wasted",
            candidates=["shut", "unlock", "crack", "stand", "lift"],
            table=table,
            k=3,
            expected=["shut", "lift"],
            expected_trace=[
                ("unlock", "answer-entailment", ANSWER),
                ("crack", "answer-entailment", ANSWER),
                ("stand", "answer-entailment", ANSWER),
            ],
            underfilled=True,
            batches=[
                [("shut", ANSWER), ("unlock", ANSWER), ("unlock", "shut"),
                 ("crack", ANSWER), ("crack", "shut")],
                [(ANSWER, "unlock"), (ANSWER, "crack")],
                [("stand", ANSWER), ("stand", "shut"), ("lift", ANSWER), ("lift", "shut")],
                [(ANSWER, "stand"), ("lift", "stand")],
            ],
        )
    )

    # 17. a candidate behind an undecided one saves a pass: in wave 1 the
    # forward answer pairs of "stand" and "lift" bring their pairs against
    # the undecided "shut". "stand" entails the answer one way only, so in
    # wave 2 it sends the reverse, while "lift", which has cleared the answer
    # and "shut", sends its pair against the undecided "stand" in the same
    # wave. Everything else is neutral, so both are kept after two passes
    # instead of four
    table = {}
    _one_way(table, "stand", ANSWER, ENTAILMENT)
    scenarios.append(
        dict(
            name="waiting-candidate-saves-a-pass",
            candidates=["shut", "stand", "lift"],
            table=table,
            k=3,
            expected=["shut", "stand", "lift"],
            expected_trace=[],
            underfilled=False,
            batches=[
                [("shut", ANSWER), ("stand", ANSWER), ("stand", "shut"),
                 ("lift", ANSWER), ("lift", "shut")],
                [(ANSWER, "stand"), ("lift", "stand")],
            ],
        )
    )

    # 18. a pair against an undecided candidate is wasted: as in 17, "lift"
    # sends its pair against "stand" in wave 2, but "stand" and "shut" entail
    # each other, so "stand" falls after wave 3, the lone wave of its reverse
    # pair against "shut", and "lift" is kept without that pair. The passes
    # are those of a scan without it
    table = {}
    _one_way(table, "stand", ANSWER, ENTAILMENT)
    _both(table, "stand", "shut")
    scenarios.append(
        dict(
            name="waiting-candidate-pair-wasted",
            candidates=["shut", "stand", "lift"],
            table=table,
            k=3,
            expected=["shut", "lift"],
            expected_trace=[("stand", "pairwise-entailment", "shut")],
            underfilled=True,
            batches=[
                [("shut", ANSWER), ("stand", ANSWER), ("stand", "shut"),
                 ("lift", ANSWER), ("lift", "shut")],
                [(ANSWER, "stand"), ("lift", "stand")],
                [("shut", "stand")],
            ],
        )
    )

    # 19. a lone wave's candidate sends its whole chain: "unlock" falls at the
    # answer stage after wave 2, so "stand", the k-th candidate, is read in
    # wave 3 behind two kept ones and asks the only pair. With its answer
    # pair it sends its forward pairs against both "shut" and "lift"; all are
    # neutral, so it is kept after three passes, where one extra pair per
    # wave would take four. The pairs of "unlock" against "shut" (wave 1, its
    # ride-along against the undecided "shut") and "lift" (wave 2, its lone
    # chain) are wasted
    table = {}
    _both(table, "unlock", ANSWER)
    scenarios.append(
        dict(
            name="lone-wave-sends-its-chain",
            candidates=["shut", "lift", "unlock", "stand"],
            table=table,
            k=3,
            expected=["shut", "lift", "stand"],
            expected_trace=[("unlock", "answer-entailment", ANSWER)],
            underfilled=False,
            batches=[
                [("shut", ANSWER), ("lift", ANSWER), ("lift", "shut"),
                 ("unlock", ANSWER), ("unlock", "shut")],
                [(ANSWER, "unlock"), ("unlock", "lift")],
                [("stand", ANSWER), ("stand", "shut"), ("stand", "lift")],
            ],
        )
    )

    # 20. a lone wave's chain carries only its first reverse pair: as in 19,
    # but "stand" entails the answer, "shut" and "lift" one way each, so
    # wave 4 holds its reverse answer pair and, of the two reverse pairs its
    # forward entailments open, only the one against "shut". The reverse
    # pairs are neutral, so "stand" is kept after wave 5 sends the other
    table = {}
    _both(table, "unlock", ANSWER)
    _one_way(table, "stand", ANSWER, ENTAILMENT)
    _one_way(table, "stand", "shut", ENTAILMENT)
    _one_way(table, "stand", "lift", ENTAILMENT)
    scenarios.append(
        dict(
            name="lone-wave-sends-one-reverse-pair",
            candidates=["shut", "lift", "unlock", "stand"],
            table=table,
            k=3,
            expected=["shut", "lift", "stand"],
            expected_trace=[("unlock", "answer-entailment", ANSWER)],
            underfilled=False,
            batches=[
                [("shut", ANSWER), ("lift", ANSWER), ("lift", "shut"),
                 ("unlock", ANSWER), ("unlock", "shut")],
                [(ANSWER, "unlock"), ("unlock", "lift")],
                [("stand", ANSWER), ("stand", "shut"), ("stand", "lift")],
                [(ANSWER, "stand"), ("shut", "stand")],
                [("lift", "stand")],
            ],
        )
    )

    # 21. a forward ride-along against an undecided candidate saves a pass:
    # in wave 1 "lift"'s forward answer pair brings its pair against "shut",
    # which is undecided until its own answer pair is known. Everything is
    # neutral, so both are kept after one pass, where sending the pair
    # against "shut" only once "shut" is kept would take two
    scenarios.append(
        dict(
            name="ride-along-against-undecided-saves-a-pass",
            candidates=["shut", "lift"],
            table={},
            k=2,
            expected=["shut", "lift"],
            expected_trace=[],
            underfilled=False,
            batches=[
                [("shut", ANSWER), ("lift", ANSWER), ("lift", "shut")],
            ],
        )
    )

    return scenarios


SCENARIOS = _scenarios()


def build_nli(scenario):
    return MockNliClassifier(table=dict(scenario["table"]))

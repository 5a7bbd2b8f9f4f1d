"""Independent reference implementations used to cross-check the package.

Everything here re-derives expected behavior from first principles and is
kept free of the code paths under test: the search oracle replays the
branch-then-greedy process with its own bookkeeping, the eager selection
oracle runs the two elimination stages one after the other, the sequential
selection oracle and the per-pair audit classify one ordered pair at a time,
the whole-request oracle chains the search oracle, its own scoring and
ranking and the sequential selection oracle, the abbreviation
oracle keeps the regex form of the look-back, the prefill oracle masks a
blank by splicing the mask string into the text, and the metric
oracle works on explicit 0/1 relevance vectors.
"""

import math
import re
from types import SimpleNamespace

from clozegen.backends import ENTAILMENT
from clozegen.data import _ABBREVIATIONS
from clozegen.generation import MaskedContext, build_masked_context, decode_plan
from clozegen.selection import STAGE_ANSWER, STAGE_PAIRWISE, DistractorSet, TraceEntry


def brute_force_candidates(backend, masked_context, order, branch_width):
    """Enumerate the branch-then-greedy search directly.

    Returns a list of (token_strings_in_positional_order, step_probs_in
    decode_order) tuples. The per-step winner is re-derived from the full
    prediction list via the (probability desc, token asc) rule instead of
    trusting any backend ordering.
    """
    positions = masked_context.mask_positions
    huge = 10**9
    first_position = positions[order[0]]
    first = backend.fill_mask(list(masked_context.tokens), first_position, huge)
    first = sorted(first, key=lambda tp: (-tp.probability, tp.token))[:branch_width]
    results = []
    for token, probability in first:
        tokens = list(masked_context.tokens)
        tokens[first_position] = token
        fills = {order[0]: token}
        probs = [probability]
        dead = False
        for slot in order[1:]:
            position = positions[slot]
            preds = backend.fill_mask(tokens, position, huge)
            if not preds:
                dead = True
                break
            best = min(preds, key=lambda tp: (-tp.probability, tp.token))
            tokens[position] = best.token
            fills[slot] = best.token
            probs.append(best.probability)
        if not dead:
            strings = [fills[i] for i in range(len(positions))]
            results.append((strings, probs))
    return results


def oracle_order(strategy, mask_count):
    """Decode order by definition: l2r, r2l, or both ends inward (0, m-1, 1, ...)."""
    slots = list(range(mask_count))
    if strategy == "l2r":
        return slots
    if strategy == "r2l":
        return slots[::-1]
    return list(dict.fromkeys(i for pair in zip(slots, reversed(slots)) for i in pair))


def oracle_rank_score(probs, avg):
    """Length-normalized score by definition: a constant vector scores its
    constant; otherwise the r-th root of the product (geometric) or
    r / sum(1/p) (harmonic), over the sorted probabilities."""
    if len(set(probs)) == 1:
        return probs[0]
    r = len(probs)
    if avg == "geometric":
        return math.prod(sorted(probs)) ** (1.0 / r)
    return r / sum(1.0 / p for p in sorted(probs))


def whole_request_oracle(mlm, nli, context, answer_span, sentence_bounds, config):
    """One ``generate_distractors`` request, re-derived stage by stage.

    ``context`` is whitespace-tokenized and ``answer_span`` lies on token
    boundaries. For each mask count of ``decode_plan`` the answer tokens are
    spliced out for that many mask tokens (the result must fit the model
    window, so nothing is windowed) and ``brute_force_candidates`` enumerates
    the fills. Fills are scored by ``oracle_rank_score``, sorted by (score
    descending, mask count, text), deduplicated on case-folded,
    whitespace-collapsed text keeping the first, and copies of the answer
    are dropped. ``sequential_selection`` then picks from them against the
    sentence ``context[sentence_bounds[0]:sentence_bounds[1]]``.

    Returns the ranked ``(text, rank_score, step probabilities, mask
    count)`` tuples and the ``DistractorSet``.
    """
    def norm(text):
        return " ".join(text.lower().split())

    start, end = answer_span
    answer = context[start:end]
    before, answer_tokens, after = (
        context[:start].split(), answer.split(), context[end:].split()
    )
    info = mlm.info()
    counts, branch_width = decode_plan(config, len(answer_tokens))
    pool = []
    for count in counts:
        tokens = before + [info.mask_token] * count + after
        assert len(tokens) <= info.max_sequence_length, "context would be windowed"
        masked = MaskedContext(tokens, list(range(len(before), len(before) + count)))
        order = oracle_order(config.strategy, count)
        for strings, probs in brute_force_candidates(mlm, masked, order, branch_width):
            text = mlm.detokenize(strings)
            pool.append((text, oracle_rank_score(probs, config.avg), probs, count))
    pool.sort(key=lambda c: (-c[1], c[3], c[0]))
    seen = {norm(answer)}  # an answer copy is dropped like a duplicate
    ranked = []
    for candidate in pool:
        if norm(candidate[0]) not in seen:
            seen.add(norm(candidate[0]))
            ranked.append(candidate)
    s_start, s_end = sentence_bounds
    chosen = sequential_selection(
        nli,
        context[s_start:s_end],
        answer,
        [SimpleNamespace(text=c[0]) for c in ranked],
        config.k,
        answer_span=(start - s_start, end - s_start),
    )
    return ranked, chosen


def relevance_vector(generated, gold):
    """0/1 relevance per generated rank, duplicates blanked after first use."""
    def norm(s):
        return " ".join(s.lower().split())

    golds = {norm(g) for g in gold}
    seen = set()
    rel = []
    for text in generated:
        key = norm(text)
        if key in seen:
            continue
        seen.add(key)
        rel.append(1 if key in golds else 0)
    return rel, len(golds)


def brute_force_metrics(generated, gold):
    """(P@1, F1@3, MRR@10, NDCG@10) from an explicit relevance vector."""
    rel, n_gold = relevance_vector(generated, gold)

    p_at_1 = float(rel[0]) if rel else 0.0

    top3 = rel[:3]
    hits = sum(top3)
    if hits == 0:
        f1 = 0.0
    else:
        precision = hits / len(top3)
        recall = hits / n_gold
        f1 = 2 * precision * recall / (precision + recall)

    mrr = 0.0
    for i, r in enumerate(rel[:10]):
        if r:
            mrr = 1.0 / (i + 1)
            break

    dcg = sum(r / math.log2(i + 2) for i, r in enumerate(rel[:10]))
    idcg = sum(1.0 / math.log2(i + 2) for i in range(min(n_gold, 10)))
    ndcg = dcg / idcg if idcg else 0.0

    return p_at_1, f1, mrr, ndcg


def two_way_entails(nli_backend, text_a, text_b):
    """Both (a, b) and (b, a) classify as entailment; (b, a) is asked only if (a, b) is."""
    return (
        nli_backend.classify_nli(text_a, text_b) == ENTAILMENT
        and nli_backend.classify_nli(text_b, text_a) == ENTAILMENT
    )


def per_pair_audit(nli_backend, sentences):
    """No two sentences entail each other both ways, asked one pair at a time in
    rank order and stopping at the first that does."""
    return not any(
        two_way_entails(nli_backend, a, b)
        for i, a in enumerate(sentences)
        for b in sentences[i + 1 :]
    )


def eager_selection(nli, context, answer, answer_span, candidates, k):
    """Both elimination stages run eagerly, one after the other.

    Stage one classifies every candidate against the answer sentence;
    stage two walks the survivors in rank order and stops at ``k`` kept.
    Returns (distractors, underfilled, trace) with trace entries as
    (candidate, stage, counterpart), stage-one removals first.
    """
    start, end = answer_span

    def sentence(text):
        return context[:start] + text + context[end:]

    trace = []
    survivors = []
    for text in candidates:
        if two_way_entails(nli, sentence(text), context):
            trace.append((text, STAGE_ANSWER, answer))
        else:
            survivors.append(text)
    kept = []
    for text in survivors:
        if len(kept) == k:
            break
        match = next(
            (o for o in kept if two_way_entails(nli, sentence(text), sentence(o))), None
        )
        if match is None:
            kept.append(text)
        else:
            trace.append((text, STAGE_PAIRWISE, match))
    return kept, not candidates or len(kept) < k, trace


def sequential_selection(nli_backend, context, answer, candidates, k, answer_span):
    """The best-first scan, one ``classify_nli`` call per ordered pair.

    Candidates are scanned in rank order; each is checked two ways against
    the answer sentence, then against each kept candidate in order, and
    the scan stops at ``k`` kept. Returns a ``DistractorSet`` whose trace
    lists answer removals first, then pairwise ones, each in rank order.
    """
    start, end = answer_span
    answer_trace = []
    pairwise_trace = []
    kept = []  # (candidate text, its sentence)
    for candidate in candidates:
        if len(kept) == k:
            break
        sentence = context[:start] + candidate.text + context[end:]
        if two_way_entails(nli_backend, sentence, context):
            answer_trace.append(TraceEntry(candidate.text, STAGE_ANSWER, answer))
            continue
        match = next(
            (text for text, other in kept if two_way_entails(nli_backend, sentence, other)),
            None,
        )
        if match is None:
            kept.append((candidate.text, sentence))
        else:
            pairwise_trace.append(TraceEntry(candidate.text, STAGE_PAIRWISE, match))
    return DistractorSet(
        distractors=[text for text, _ in kept],
        answer=answer,
        trace=answer_trace + pairwise_trace,
        underfilled=len(kept) < k,
    )


def scan_wave_bound(classify, sentences, k):
    """The fewest passes a scan giving the verdicts of ``sequential_selection``
    can take: the critical path of its chain of dependent pairs.

    ``sentences`` are the answer sentence, then each candidate's in rank
    order; ``classify(premise, hypothesis)`` labels one pair. Candidate i
    is certain to be reached at wave 1 if i <= k, else one wave after the
    (i - k)-th earliest removal before it. Each of its pairs comes one wave
    after its previous pair and no earlier than one wave after the decision
    on its counterpart (the answer's is at 0); a reverse pair follows only
    a forward entailment. A removal is decided at its last pair's wave, a
    kept candidate at the later of that and the latest decision before it.
    """
    decided = {0: 0}  # sentence index -> wave its fate is known
    kept, removals = [], []
    for i in range(1, len(sentences)):
        if len(kept) == k:
            break
        wave = 0 if i <= k else sorted(removals)[i - k - 1]
        for j in (0, *kept):
            wave = max(wave, decided[j]) + 1
            if classify(sentences[i], sentences[j]) == ENTAILMENT:
                wave += 1
                if classify(sentences[j], sentences[i]) == ENTAILMENT:
                    removals.append(wave)
                    break
        else:
            wave = max(wave, *decided.values())
            kept.append(i)
        decided[i] = wave
    return max(decided.values())


def ends_with_abbreviation_regex(text, period_index):
    """Abbreviation test on the regex match of the word before a period."""
    match = re.search(r"[\w.]+$", text[:period_index])
    if match is None:
        return False
    word = match.group().rstrip(".").lower()
    if word in _ABBREVIATIONS:
        return True
    return len(word) == 1 and word.isalpha() and text[:period_index].rstrip()[-1:].isupper()


def query_string_fill(backend, text, blank):
    """Top-1 fill for one blank by the first prefill recipe.

    The mask string is spliced into the text, the text is re-tokenized and
    the mask token searched for. Returns None when the mask token does not
    survive tokenization, as with a blank glued to punctuation (``_.``)
    under a whitespace tokenizer.
    """
    info = backend.info()
    query = text[: blank[0]] + info.mask_token + text[blank[1] :]
    tokens = backend.tokenize(query)
    if info.mask_token not in tokens:
        return None
    position = tokens.index(info.mask_token)
    masked = build_masked_context(
        tokens, (position, position + 1), 1, info.mask_token, info.max_sequence_length
    )
    predictions = backend.fill_mask(masked.tokens, masked.mask_positions[0], 1)
    return backend.detokenize([predictions[0].token])


def query_string_prefill(backend, text, question_index):
    """Passage-mode model prefill of every blank but ``question_index``.

    Blanks are filled left to right through ``query_string_fill``, each
    query seeing the earlier fills. Returns None when any fill fails.
    """
    pieces = re.split(r"(_+)", text)  # blanks sit at the odd indices
    for n, i in enumerate(range(1, len(pieces), 2)):
        if n == question_index:
            continue
        before = "".join(pieces[:i])
        blank = (len(before), len(before) + len(pieces[i]))
        fill = query_string_fill(backend, "".join(pieces), blank)
        if fill is None:
            return None
        pieces[i] = fill
    return "".join(pieces)

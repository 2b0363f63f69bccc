"""Seeded input generators for the soundkb benchmark, each with its ground truth.

Every generator draws from a ``random.Random`` built from the workload seed,
so one seed always writes byte-identical files.  The generators follow the
test-suite fixtures (``_random_mining_corpus``, ``_sound_task`` and
``separable_phrase_data``) but also control what the later stages see:

* every sentence mentions concepts after a ``sound(s) of`` trigger and
  mentions environments from the package lexicon;
* the dependency tree is a hub: a root word (a verb, or an environment
  anchor) with one chain of edges down to every mention, so the path between
  an environment and a concept is ``reverse(env chain) + root + concept
  chain``.  Chains come from seeded pools whose sizes set the number of
  distinct paths; the seed path lists name whole concept chains as positive
  or negative, and every other chain gives non-seed paths;
* vocabularies are disjoint (synthetic concept words, lexicon words, chain
  words, root words, separators), so the program's longest-match scan finds
  exactly the mentions placed.  ``expected_path`` renders each pair from the
  tree with parent pointers, an oracle independent of the program's
  breadth-first search.

All counts (sentences, mentions, chain quotas, vector rows, phrases) are
fixed by the workload and only identities and order vary with the seed, so
the work per run does not.
"""

from __future__ import annotations

import io
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"

# Root words and chain words are disjoint, so the root position in a rendered
# path is unambiguous and no path string can be both a positive and a
# negative seed.
ROOT_WORDS = ("heard", "filled", "echoed", "rang", "carried", "drifted",
              "woke", "hummed", "buzzed", "roared", "began", "kept")
CHAIN_WORDS = ("came", "alive", "crowded", "noisy", "quiet", "rose", "grew",
               "listened", "played", "walked", "stood", "waited", "passed",
               "followed", "reached", "broke", "fell", "seemed", "loud", "full")
LABELS = ("prep_in", "prep_at", "prep_on", "prep_from", "prep_near",
          "prep_through", "prep_along", "prep_with", "prep_to", "prep_upon",
          "nsubj", "nsubjpass", "dobj", "conj_and", "advmod", "ccomp", "xcomp",
          "appos")
TRIGGERS = ("sound", "sounds")
TRIGGER = None  # chain placeholder for the mention's own trigger token
SEPARATORS = ((",", ","), ("and", "CC"))
REJECTED_WORD = ("beautiful", "JJ")  # "sound of <JJ>" matches no pattern
RESERVED = set(ROOT_WORDS) | set(CHAIN_WORDS) | set(TRIGGERS) | {
    "of", "the", "and", ",", ".", REJECTED_WORD[0]}

MALFORMED_BLOCKS = 5  # corrupted blocks per corpus; `mine` and `paths` skip each
CONCEPT_MENTIONS = 2  # per sentence
OOV_SHARE = 0.05  # unlabeled phrases with one word that has no vector
MARGIN = 2.0  # first-axis distance of every phrase word from the separating plane


def fresh_words(rng: random.Random, n: int, used: set[str], suffix: str = "") -> list[str]:
    """``n`` new pseudo-words, none of them in ``used`` (which grows)."""
    out = []
    while len(out) < n:
        stem = "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS)
                       for _ in range(rng.randint(2, 3)))
        word = stem + suffix
        if word not in used:
            used.add(word)
            out.append(word)
    return out


def read_lexicon(path: Path) -> list[str]:
    """Environment entries, read as ``paths.EnvironmentLexicon.from_lines`` does."""
    entries = []
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            entries.append(line.lower())
    return entries


# ------------------------------------------------------------------ concepts


@dataclass(frozen=True)
class Concept:
    tokens: tuple[tuple[str, str], ...]  # (surface, POS)
    pattern: str

    @property
    def text(self) -> str:
        return " ".join(w for w, _ in self.tokens)

    @property
    def anchor(self) -> int:
        """Offset of the rightmost noun-tagged token, else of the last token."""
        for k in range(len(self.tokens) - 1, -1, -1):
            if self.tokens[k][1].startswith("NN"):
                return k
        return len(self.tokens) - 1


def make_concepts(rng: random.Random, n: int, used: set[str]) -> list[Concept]:
    """``n`` distinct concepts spread evenly over the six POS patterns."""
    pool = n // 6 + 8
    gerunds = fresh_words(rng, pool, used, "ing")
    singular = fresh_words(rng, pool, used)
    plural = fresh_words(rng, pool, used, "s")
    adjectives = fresh_words(rng, pool, used, "ic")

    def noun():
        if rng.random() < 0.5:
            return (rng.choice(singular), "NN")
        return (rng.choice(plural), "NNS")

    makers = {
        "P1": lambda: ((rng.choice(gerunds), "VBG"), noun()),
        "P2": lambda: ((rng.choice(gerunds), "VBG"),),
        "P3": lambda: (noun(), (rng.choice(gerunds), "VBG")),
        "P4": lambda: (noun(),),
        "P5": lambda: ((rng.choice(singular), "NN"), noun()),
        "P6": lambda: ((rng.choice(adjectives), "JJ"), noun()),
    }
    concepts: list[Concept] = []
    texts: set[str] = set()
    for i in range(n):
        pattern = f"P{i % 6 + 1}"
        while True:
            concept = Concept(makers[pattern](), pattern)
            if concept.text not in texts:
                texts.add(concept.text)
                concepts.append(concept)
                break
    return concepts


# -------------------------------------------------------------------- chains


@dataclass(frozen=True)
class Chain:
    """Edges from the hub root down to a mention anchor.

    ``hops`` are (label, word) steps to intermediate tokens, where a
    ``TRIGGER`` word stands for the mention's own ``sound(s)`` token;
    ``last`` labels the edge into the anchor.
    """

    hops: tuple[tuple[str, str | None], ...]
    last: str

    def items(self, trigger: str = "") -> list[str]:
        """Rendered items walking down from the root to the anchor."""
        out = []
        for label, word in self.hops:
            out += [label + "()", trigger if word is TRIGGER else word]
        return out + [self.last + "()"]


def make_chains(rng: random.Random, n: int, max_words: int, concept: bool) -> list[Chain]:
    """``n`` distinct chains; chain ``i`` passes ``i % (max_words + 1)`` chain words.

    A concept chain then passes the mention's trigger and ends ``... sound(s)
    prep_of()`` like the package's seed paths; an environment chain ends with
    one more labeled edge.
    """
    chains: list[Chain] = []
    while len(chains) < n:
        words = [rng.choice(CHAIN_WORDS) for _ in range(len(chains) % (max_words + 1))]
        if concept:
            chain = Chain(tuple((rng.choice(LABELS), w) for w in words + [TRIGGER]), "prep_of")
        else:
            chain = Chain(tuple((rng.choice(LABELS), w) for w in words), rng.choice(LABELS))
        if chain not in chains:
            chains.append(chain)
    return chains


def hub_path(env_chain: Chain | None, root: str, concept_chain: Chain, trigger: str) -> str:
    """Path string of a pair by the hub design; ``env_chain`` None: env is root."""
    if env_chain is None:
        return " ".join(concept_chain.items(trigger))
    return " ".join(env_chain.items()[::-1] + [root] + concept_chain.items(trigger))


# ------------------------------------------------------------------ sentences


class _Tok:
    __slots__ = ("surface", "pos", "head", "label", "index")

    def __init__(self, surface, pos, head=None, label=None):
        self.surface, self.pos, self.head, self.label = surface, pos, head, label
        self.index = 0


def expected_path(env_anchor: _Tok, concept_anchor: _Tok, spans: set[int]) -> str:
    """Render the tree path env -> concept as ``paths.render_path`` defines it.

    Walks parent pointers to the lowest common ancestor; a word inside either
    mention span is suppressed together with the edge label after it.
    """
    def ancestors(tok):
        out = [tok]
        while isinstance(tok.head, _Tok):
            tok = tok.head
            out.append(tok)
        return out

    a_up, b_up = ancestors(env_anchor), ancestors(concept_anchor)
    b_ids = [id(t) for t in b_up]
    lca_a = next(k for k, t in enumerate(a_up) if id(t) in b_ids)
    lca_b = b_ids.index(id(a_up[lca_a]))
    nodes = a_up[: lca_a + 1] + b_up[:lca_b][::-1]
    labels = [t.label for t in a_up[:lca_a]] + [t.label for t in b_up[:lca_b][::-1]]
    items = []
    suppress = False
    for step, label in enumerate(labels, 1):
        if suppress:
            suppress = False
        else:
            items.append(label + "()")
        if step < len(labels):
            node = nodes[step]
            if node.index in spans:
                suppress = True
            else:
                items.append(node.surface)
    return " ".join(items)


def block_text(tokens: list[_Tok]) -> str:
    lines = []
    for tok in tokens:
        if tok.head is None:
            head, label = "_", "_"
        elif tok.head == 0:
            head, label = "0", "root"
        else:
            head, label = str(tok.head.index), tok.label
        lines.append(f"{tok.index}\t{tok.surface}\t{tok.pos}\t{head}\t{label}")
    return "\n".join(lines)


@dataclass(frozen=True)
class CorpusSpec:
    sentences: int  # valid sentences; MALFORMED_BLOCKS more are written
    concepts: int
    env_mentions: int  # per sentence whose root is a verb
    env_root_every: int  # every k-th sentence has an environment as root (0: never)
    rejected_every: int  # every k-th sentence has a rejected candidate (0: never)
    roots: int
    env_chains: int
    env_words: int  # most chain words on an environment chain
    concept_chains: int
    concept_words: int  # most chain words on a concept chain
    seed_chains: int  # positive chains, and as many negative ones
    seed_share: float  # share of concept mentions on a positive seed chain, and on a negative one


@dataclass
class CorpusTruth:
    concept_rows: list[tuple[str, str, int]] = field(default_factory=list)
    occurrences: list[tuple[str, str, str, str]] = field(default_factory=list)
    seeds_pos: list[str] = field(default_factory=list)
    seeds_neg: list[str] = field(default_factory=list)
    sentences: int = 0
    skipped: int = 0
    candidates: int = 0
    accepted: int = 0


def _quota(rng: random.Random, n: int, shares: list[tuple[int, float]], rest: list[int]) -> list[int]:
    """``n`` indices: exact counts for each (index, share), the rest round-robin."""
    out = []
    for index, share in shares:
        out += [index] * round(n * share)
    out += [rest[k % len(rest)] for k in range(n - len(out))]
    rng.shuffle(out)
    return out


class _CorpusWriter:
    def __init__(self, rng: random.Random, spec: CorpusSpec, lexicon: list[str]):
        self.rng, self.spec, self.lexicon = rng, spec, lexicon
        used = set(RESERVED) | {w for entry in lexicon for w in entry.split()}
        self.concepts = make_concepts(rng, spec.concepts, used)
        self.roots = list(ROOT_WORDS[: spec.roots])
        self.env_chains = make_chains(rng, spec.env_chains, spec.env_words, concept=False)
        self.concept_chains = make_chains(rng, spec.concept_chains, spec.concept_words,
                                          concept=True)
        k = spec.seed_chains
        self.pos_ids, self.neg_ids = list(range(k)), list(range(k, 2 * k))

    def seed_paths(self, ids: list[int]) -> list[str]:
        out = []
        for i in ids:
            for trigger in TRIGGERS:
                if self.spec.env_root_every:
                    out.append(hub_path(None, "", self.concept_chains[i], trigger))
                for env_chain in self.env_chains:
                    for root in self.roots:
                        out.append(hub_path(env_chain, root, self.concept_chains[i], trigger))
        return out

    def write(self, source_name: str) -> tuple[str, CorpusTruth]:
        rng, spec = self.rng, self.spec
        truth = CorpusTruth(seeds_pos=self.seed_paths(self.pos_ids),
                            seeds_neg=self.seed_paths(self.neg_ids))
        env_root = [bool(spec.env_root_every) and s % spec.env_root_every == 0
                    for s in range(spec.sentences)]
        n_env_root = sum(env_root)
        n_verb_root = spec.sentences - n_env_root
        seeded = [(i, spec.seed_share / spec.seed_chains) for i in self.pos_ids + self.neg_ids]
        rest = list(range(2 * spec.seed_chains, spec.concept_chains))
        # Quotas are drawn per sentence kind, because the kinds pair each
        # concept with a different number of environments.
        self.chain_iter = {
            kind: iter(_quota(rng, count * CONCEPT_MENTIONS, seeded, rest))
            for kind, count in ((True, n_env_root), (False, n_verb_root))
        }
        order = list(range(len(self.concepts)))
        order += [rng.randrange(len(order))
                  for _ in range(spec.sentences * CONCEPT_MENTIONS - len(order))]
        rng.shuffle(order)
        self.concept_iter = iter(order)
        self.env_chain_iter = iter(_quota(rng, n_verb_root * spec.env_mentions, [],
                                          list(range(len(self.env_chains)))))
        self.root_iter = iter(_quota(rng, n_verb_root, [], list(range(len(self.roots)))))

        total = spec.sentences + MALFORMED_BLOCKS
        malformed = set(rng.sample(range(1, total + 1), MALFORMED_BLOCKS))
        freq: dict[str, list] = {}
        blocks = []
        sentence_no = 0
        for ordinal in range(1, total + 1):
            if ordinal in malformed:
                blocks.append(self.malformed_block(truth.skipped))
                truth.skipped += 1
                continue
            rejected = bool(spec.rejected_every) and sentence_no % spec.rejected_every == 0
            tokens, mentions, rows = self.sentence(
                env_root[sentence_no], rejected, f"{source_name}:{ordinal}")
            sentence_no += 1
            blocks.append(block_text(tokens))
            truth.occurrences += rows
            truth.candidates += len(mentions) + rejected
            truth.accepted += len(mentions)
            for concept in mentions:
                freq.setdefault(concept.text, [concept.pattern, 0])[1] += 1
        truth.sentences = sentence_no
        truth.concept_rows = sorted(
            ((text, pattern, count) for text, (pattern, count) in freq.items()),
            key=lambda row: (-row[2], row[0]))
        return "# synthetic benchmark corpus\n" + "\n\n".join(blocks) + "\n", truth

    def env_mention(self, envs: list, entry: str) -> list[_Tok]:
        toks = [_Tok(w, "NN") for w in entry.split()]
        for tok in toks[:-1]:
            tok.head, tok.label = toks[-1], "nn"
        envs.append((toks[-1], toks, entry))
        return toks

    def sentence(self, env_is_root: bool, rejected: bool, sent_ref: str):
        rng = self.rng
        envs: list = []  # (anchor, span tokens, scene)
        segments: list[list[_Tok]] = []
        if env_is_root:
            seg = self.env_mention(envs, rng.choice(self.lexicon))
            seg[-1].head = 0
            hub = seg[-1]
            segments.append([_Tok("the", "DT")] + seg)
            env_count = 0
        else:
            hub = _Tok(self.roots[next(self.root_iter)], "VBD", head=0)
            segments.append([hub])
            env_count = self.spec.env_mentions
        for _ in range(env_count):
            chain = self.env_chains[next(self.env_chain_iter)]
            seg = self.env_mention(envs, rng.choice(self.lexicon))
            prev, chain_toks = hub, []
            for label, word in chain.hops:
                prev = _Tok(word, "VBN", head=prev, label=label)
                chain_toks.append(prev)
            seg[-1].head, seg[-1].label = prev, chain.last
            segments.append(chain_toks + [_Tok("the", "DT")] + seg + [_Tok(*rng.choice(SEPARATORS))])

        mentions = []  # (concept, anchor, span tokens)
        for _ in range(CONCEPT_MENTIONS):
            concept = self.concepts[next(self.concept_iter)]
            chain = self.concept_chains[next(self.chain_iter[env_is_root])]
            trigger = _Tok(rng.choice(TRIGGERS), "NN")
            phrase = [_Tok(w, pos) for w, pos in concept.tokens]
            anchor = phrase[concept.anchor]
            for tok in phrase:
                if tok is not anchor:
                    tok.head, tok.label = anchor, "amod"
            prev, chain_toks = hub, []
            for label, word in chain.hops:
                tok = trigger if word is TRIGGER else _Tok(word, "VBN")
                tok.head, tok.label = prev, label
                if tok is not trigger:
                    chain_toks.append(tok)
                prev = tok
            anchor.head, anchor.label = prev, chain.last
            det = [_Tok("the", "DT")] if concept.pattern != "P2" and rng.random() < 0.4 else []
            # The separator ends the pattern window, so no longer pattern
            # than the concept's own can match.
            segments.append(chain_toks + [trigger, _Tok("of", "IN")] + det + phrase
                            + [_Tok(*rng.choice(SEPARATORS))])
            mentions.append((concept, anchor, phrase))
        if rejected:
            segments.append([_Tok(rng.choice(TRIGGERS), "NN", head=hub, label="dobj"),
                             _Tok("of", "IN"), _Tok(*REJECTED_WORD),
                             _Tok(*rng.choice(SEPARATORS))])

        rest = segments[1:]
        rng.shuffle(rest)
        tokens = [tok for seg in [segments[0]] + rest for tok in seg] + [_Tok(".", ".")]
        for index, tok in enumerate(tokens, 1):
            tok.index = index

        rows = []
        envs.sort(key=lambda e: e[0].index)
        mentions.sort(key=lambda m: m[1].index)
        for concept, anchor, phrase in mentions:
            for env_anchor, env_toks, scene in envs:
                spans = {t.index for t in phrase} | {t.index for t in env_toks}
                rows.append((scene, concept.text,
                             expected_path(env_anchor, anchor, spans), sent_ref))
        return tokens, [m[0] for m in mentions], rows

    def malformed_block(self, kind: int) -> str:
        """A sentence with a mined-looking concept and one format error."""
        concept = self.rng.choice(self.concepts)
        lines = ["1\twe\tPRP\t2\tnsubj", "2\theard\tVBD\t0\troot",
                 "3\tsound\tNN\t2\tdobj", "4\tof\tIN\t_\t_"]
        for k, (word, pos) in enumerate(concept.tokens):
            lines.append(f"{5 + k}\t{word}\t{pos}\t3\tprep_of")
        corrupt = kind % MALFORMED_BLOCKS
        if corrupt == 0:
            lines[2] = "3\tsound\tNN\t2"  # four columns
        elif corrupt == 1:
            lines[2] = "3\tsound\tNN\tx\tdobj"  # non-integer head
        elif corrupt == 2:
            lines[3] = "3\tof\tIN\t_\t_"  # duplicate index
        elif corrupt == 3:
            lines[0] = "1\twe\tPRP\t0\troot"  # two roots
        else:
            lines[2] = "3\tsound\tNN\t99\tdobj"  # head out of range
        return "\n".join(lines)


def make_corpus(rng: random.Random, spec: CorpusSpec, lexicon: list[str],
                source_name: str) -> tuple[str, CorpusTruth]:
    """Annotated corpus text and its truth, for the file named ``source_name``."""
    return _CorpusWriter(rng, spec, lexicon).write(source_name)


# ------------------------------------------------------------- embeddings


@dataclass
class PhraseTruth:
    labeled: list[tuple[str, str, int]] = field(default_factory=list)
    phrases: list[tuple[str, str, int]] = field(default_factory=list)  # with truth label
    vec_rows: int = 0
    oov_words: int = 0  # unlabeled phrases with one word that has no vector


def make_phrases_and_vectors(rng: random.Random, dim: int, vec_rows: int, words_per_class: int,
                             labeled: int, phrases: int, extra_words: list[str]):
    """A ``.vec`` text plus separable labeled and unlabeled bigram sets.

    As in ``separable_phrase_data``, sound words sit at ``+(MARGIN + |noise|)``
    on the first axis and other words at the mirror image, so the hyperplane
    through the first axis of each word separates the classes, under AWV and
    CWV, with ``MARGIN`` to spare.  That margin is checked on every phrase
    against the written (rounded) vectors.  An unlabeled phrase may have one
    word without a vector, which contributes a zero vector.  ``extra_words``
    get rows too (path words for the relation model); filler rows pad the
    file to ``vec_rows``.
    """
    used = set(RESERVED) | set(extra_words)
    sound_words = fresh_words(rng, words_per_class, used, "o")
    other_words = fresh_words(rng, words_per_class, used, "u")
    oov_words = fresh_words(rng, max(1, words_per_class // 10), used, "x")
    n_filler = vec_rows - 2 * words_per_class - len(extra_words)
    if n_filler < 0:
        raise ValueError("vec_rows too small for the phrase vocabulary")
    words = sound_words + other_words + list(extra_words) + fresh_words(rng, n_filler, used, "e")

    nprng = np.random.default_rng(rng.getrandbits(64))
    vectors = nprng.normal(0.0, 0.25, size=(vec_rows, dim))
    first = MARGIN + np.abs(nprng.normal(0.0, 0.5, size=2 * words_per_class))
    first[words_per_class:] *= -1.0
    vectors[: 2 * words_per_class, 0] = first
    vectors = np.round(vectors, 5)
    order = nprng.permutation(vec_rows)
    body = io.StringIO()
    np.savetxt(body, vectors[order], fmt="%.5f")
    vec_text = f"{vec_rows} {dim}\n" + "".join(
        f"{words[k]} {line}\n" for k, line in zip(order, body.getvalue().splitlines()))
    axis = dict(zip(words, vectors[:, 0].tolist()))

    truth = PhraseTruth(vec_rows=vec_rows)

    def bigram(label: int, allow_oov: bool) -> tuple[str, str, int]:
        pool = sound_words if label > 0 else other_words
        w1, w2 = rng.choice(pool), rng.choice(pool)
        if allow_oov and rng.random() < OOV_SHARE:
            if rng.random() < 0.5:
                w1 = rng.choice(oov_words)
            else:
                w2 = rng.choice(oov_words)
            truth.oov_words += 1
        if label * (axis.get(w1, 0.0) + axis.get(w2, 0.0)) < MARGIN:
            raise AssertionError(f"phrase {w1} {w2} violates the margin")
        return (w1, w2, label)

    truth.labeled = [bigram(+1 if k % 2 == 0 else -1, False) for k in range(labeled)]
    truth.phrases = [bigram(rng.choice((+1, -1)), True) for _ in range(phrases)]
    return vec_text, truth

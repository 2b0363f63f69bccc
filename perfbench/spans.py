"""Spans around the calls into soundkb's modules, and the per-layer metrics.

``Tracer.install`` replaces module functions with timing wrappers where the
callers look them up: ``cli`` reaches the layers through module attributes
(``corpus.parse_annotated_corpus``), and inside a module the layers call
each other through module globals (``paths.build_dep_graph``, imported from
``corpus``).  No source file is edited.  Spans live in memory, each with its
parent, and ``export`` hands them to the child process, which writes them
when the command ends.

``layer_metrics`` turns the spans of traced pipeline runs into the per-layer
metrics declared in BENCHMARK.json.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import time

COMMANDS = ("mine", "paths", "train-phrase", "classify", "train-relation",
            "predict", "report")

_perf = time.perf_counter


def _size(args, kwargs, result):
    return len(result)


def _pairs(args, kwargs, result):
    return [len(result), len(args[1])]  # pairs found, concept table size


def _examples(args, kwargs, result):
    return [len(args[0]), len(result)]  # occurrences in, examples out


def _train_tokens(args, kwargs, result):
    return len(args[2].path.split())


def _predict_tokens(args, kwargs, result):
    vocab = args[1].ids
    return [len(args[2]), sum(1 for token in args[2] if token not in vocab)]


def _steps(args, kwargs, result):
    return len(args[0]) * result.epochs


def _oov(args, kwargs, result):
    store, bigram = args[0], args[1]
    return sum(1 for word in bigram if word not in store)


# (module, attribute, count).  The attribute is wrapped in the module that
# looks it up; a count function turns (args, kwargs, result) into the work
# done, recorded with the span.
WRAPPED = (
    ("cli", "cmd_mine", None),
    ("cli", "cmd_paths", None),
    ("cli", "cmd_train_phrase", None),
    ("cli", "cmd_classify", None),
    ("cli", "cmd_train_relation", None),
    ("cli", "cmd_predict", None),
    ("cli", "cmd_report", None),
    ("corpus", "parse_annotated_corpus", None),
    ("corpus", "parse_block", None),
    ("mining", "mine_corpus", None),
    ("mining", "mine_sentence", _size),
    ("mining", "find_candidate_mentions", _size),
    ("mining", "merge_tables", None),
    ("paths", "occurrences_for_sentence", _size),
    ("paths", "find_mention_pairs", _pairs),
    ("paths", "build_dep_graph", None),
    ("paths", "shortest_dep_path", None),
    ("paths", "render_path", None),
    ("paths", "rank_paths_by_frequency", _size),
    ("paths", "generate_training_examples", _examples),
    ("lstm", "train", None),
    ("lstm", "evaluate", None),
    ("lstm", "loss_and_gradients", _train_tokens),
    ("lstm", "predict_relation", _predict_tokens),
    ("phrase", "cross_validate", None),
    ("phrase", "train", _steps),
    ("phrase", "predict", None),
    ("phrase", "featurize", _oov),
    ("embeddings", "featurize", _oov),
    ("embeddings", "load_embeddings", _size),
)


class Tracer:
    """In-memory spans: [name id, parent index, start, end, failed, count]."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self._open: list[int] = []

    def install(self) -> None:
        for module_name, attr, count in WRAPPED:
            module = importlib.import_module(f"soundkb.{module_name}")
            fn = getattr(module, attr)
            name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
            if name not in self.names:
                self.names.append(name)
            setattr(module, attr, self._wrap(fn, self.names.index(name), count))

    def _begin(self, name_id: int) -> tuple[int, list]:
        parent = self._open[-1] if self._open else -1
        record = [name_id, parent, 0.0, 0.0, 0, None]
        index = len(self.spans)
        self.spans.append(record)
        return index, record

    def _wrap(self, fn, name_id, count):
        spans_open = self._open
        if inspect.isgeneratorfunction(fn):
            # The span runs from the first item to exhaustion; while the
            # generator body runs, its span is the parent of inner calls.
            def generator_wrapper(*args, **kwargs):
                index, record = self._begin(name_id)
                inner = fn(*args, **kwargs)
                items = 0
                record[2] = _perf()
                try:
                    while True:
                        spans_open.append(index)
                        try:
                            item = next(inner)
                        except StopIteration:
                            break
                        finally:
                            spans_open.pop()
                        items += 1
                        yield item
                finally:
                    record[3] = _perf()
                    record[5] = items

            return generator_wrapper

        def wrapper(*args, **kwargs):
            index, record = self._begin(name_id)
            spans_open.append(index)
            record[2] = _perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[3] = _perf()
                record[4] = 1
                raise
            finally:
                spans_open.pop()
            record[3] = _perf()
            if count is not None:
                record[5] = count(args, kwargs, result)
            return result

        return wrapper

    def export(self) -> dict:
        return {"names": self.names, "spans": self.spans}


# ---------------------------------------------------------------- metrics


class _CommandTrace:
    """The spans of one traced command, grouped by name."""

    def __init__(self, doc: dict):
        self.names = doc["names"]
        self.spans = doc["spans"]
        self.child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[1] >= 0:
                self.child_time[span[1]] += span[3] - span[2]

    def get(self, name: str) -> list[list]:
        if name not in self.names:
            return []
        name_id = self.names.index(name)
        return [span for span in self.spans if span[0] == name_id]

    def self_time(self, name: str) -> float:
        """Total duration of ``name`` spans minus the time of their children."""
        if name not in self.names:
            return 0.0
        name_id = self.names.index(name)
        return sum(span[3] - span[2] - self.child_time[k]
                   for k, span in enumerate(self.spans) if span[0] == name_id)


def _timing(out: dict, name: str, unit: str, values: list[float], high: bool = True) -> None:
    """Median, 90th percentile and sample count of one timing."""
    out[f"{name}.p50"] = (statistics.median(values) if values else 0.0, unit)
    if high:
        p90 = statistics.quantiles(values, n=10)[8] if len(values) > 1 else (
            values[0] if values else 0.0)
        out[f"{name}.p90"] = (p90, unit)
    out[f"{name}.n"] = (len(values), "count")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(reps: list[dict[str, dict]], rss_mb: dict[str, list[float]],
                  traced_pipeline_s: list[float], pipeline_s: list[float],
                  error_rate: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from traced reps.

    ``reps`` holds one ``{command: trace doc}`` per traced pipeline run, with
    span times in seconds at reference speed; ``rss_mb`` is the peak RSS of
    each command over the untraced runs.
    """
    samples: dict[str, list[float]] = {}
    per_rep: dict[str, list[float]] = {}

    def add(key, value):
        samples.setdefault(key, []).append(value)

    def rep_value(key, value):
        per_rep.setdefault(key, []).append(value)

    for rep in reps:
        traces = {cmd: _CommandTrace(doc) for cmd, doc in rep.items()}
        for cmd, trace in traces.items():
            for span in trace.get("corpus.parse_block"):
                add("parse_block", span[3] - span[2])
            for span in trace.get("corpus.parse_annotated_corpus"):
                add("sentences_per_s", _ratio(span[5], span[3] - span[2]))
            for span in trace.get("embeddings.load_embeddings"):
                if not span[4]:
                    add("rows_per_s", _ratio(span[5], span[3] - span[2]))
            featurize = [s for s in trace.get("embeddings.featurize") if not s[4]]
            for span in featurize:
                add("featurize", span[3] - span[2])
                add("oov_words", span[5])
            add("featurize_words", 2 * len(featurize))
            cmd_name = "cmd_" + cmd.replace("-", "_")
            rep_value(f"self.{cmd}", trace.self_time(f"cli.{cmd_name}"))

        mine = traces["mine"]
        rep_value("skipped", sum(s[4] for s in mine.get("corpus.parse_block")))
        for span in mine.get("mining.mine_sentence"):
            add("mine_sentence", span[3] - span[2])
        for span in mine.get("mining.merge_tables"):
            add("merge_tables", span[3] - span[2])
        rep_value("accept_ratio", _ratio(sum(s[5] for s in mine.get("mining.mine_sentence")),
                                         sum(s[5] for s in mine.get("mining.find_candidate_mentions"))))

        paths = traces["paths"]
        pairs = paths.get("paths.find_mention_pairs")
        for span in pairs:
            add("find_mention_pairs", span[3] - span[2])
        rep_value("concepts", pairs[0][5][1] if pairs else 0)
        for name in ("shortest_dep_path", "render_path"):
            for span in paths.get(f"paths.{name}"):
                add(name, span[3] - span[2])
        occurrences = sum(s[5] for s in paths.get("paths.occurrences_for_sentence"))
        rep_value("connected_ratio", _ratio(occurrences, sum(s[5][0] for s in pairs)))
        rep_value("distinct_path_ratio", _ratio(
            sum(s[5] for s in paths.get("paths.rank_paths_by_frequency")), occurrences))

        relation = traces["train-relation"]
        examples = relation.get("paths.generate_training_examples")
        rep_value("seed_match_ratio", _ratio(sum(s[5][1] for s in examples),
                                             sum(s[5][0] for s in examples)))
        trained = 0
        for span in relation.get("lstm.loss_and_gradients"):
            add("loss_and_gradients", _ratio(span[3] - span[2], span[5]))
            trained += span[5]
        rep_value("tokens_trained", trained)
        rep_value("evaluate_share", _ratio(
            sum(s[3] - s[2] for s in relation.get("lstm.evaluate")),
            sum(s[3] - s[2] for s in relation.get("lstm.train"))))

        predict = traces["predict"]
        predicted = unknown = 0
        for span in predict.get("lstm.predict_relation"):
            add("predict_relation", _ratio(span[3] - span[2], span[5][0]))
            predicted += span[5][0]
            unknown += span[5][1]
        rep_value("tokens_predicted", predicted)
        rep_value("unk_ratio", _ratio(unknown, predicted))

        phrase_train = traces["train-phrase"]
        for span in phrase_train.get("phrase.train"):
            add("phrase_train", _ratio(span[3] - span[2], span[5]))
        for span in phrase_train.get("phrase.cross_validate"):
            add("cross_validate", span[3] - span[2])
        for span in traces["classify"].get("phrase.predict"):
            add("phrase_predict", span[3] - span[2])

    us = 1e6
    s = samples
    out: dict[str, tuple[float, str]] = {}
    _timing(out, "corpus.parse_block.us", "us", [v * us for v in s.get("parse_block", [])])
    out["corpus.sentences_per_s"] = (_median(s.get("sentences_per_s", [])), "1/s")
    out["corpus.skipped"] = (_median(per_rep.get("skipped", [])), "count")
    _timing(out, "mining.mine_sentence.us", "us", [v * us for v in s.get("mine_sentence", [])])
    _timing(out, "mining.merge_tables.s", "s", s.get("merge_tables", []), high=False)
    out["mining.accept_ratio"] = (_median(per_rep.get("accept_ratio", [])), "ratio")
    _timing(out, "paths.find_mention_pairs.us", "us",
            [v * us for v in s.get("find_mention_pairs", [])])
    out["paths.concepts"] = (_median(per_rep.get("concepts", [])), "count")
    _timing(out, "paths.shortest_dep_path.us", "us",
            [v * us for v in s.get("shortest_dep_path", [])])
    _timing(out, "paths.render_path.us", "us", [v * us for v in s.get("render_path", [])])
    for key in ("connected_ratio", "distinct_path_ratio", "seed_match_ratio"):
        out[f"paths.{key}"] = (_median(per_rep.get(key, [])), "ratio")
    _timing(out, "lstm.loss_and_gradients.us_per_token", "us",
            [v * us for v in s.get("loss_and_gradients", [])])
    out["lstm.evaluate.share"] = (_median(per_rep.get("evaluate_share", [])), "ratio")
    _timing(out, "lstm.predict_relation.us_per_token", "us",
            [v * us for v in s.get("predict_relation", [])])
    out["lstm.tokens_trained"] = (_median(per_rep.get("tokens_trained", [])), "count")
    out["lstm.tokens_predicted"] = (_median(per_rep.get("tokens_predicted", [])), "count")
    out["lstm.unk_ratio"] = (_median(per_rep.get("unk_ratio", [])), "ratio")
    _timing(out, "phrase.train.us_per_step", "us", [v * us for v in s.get("phrase_train", [])])
    _timing(out, "phrase.cross_validate.s", "s", s.get("cross_validate", []), high=False)
    _timing(out, "phrase.predict.us", "us", [v * us for v in s.get("phrase_predict", [])])
    _timing(out, "embeddings.load_embeddings.rows_per_s", "1/s", s.get("rows_per_s", []))
    _timing(out, "embeddings.featurize.us", "us", [v * us for v in s.get("featurize", [])])
    out["embeddings.oov_ratio"] = (_ratio(sum(s.get("oov_words", [])),
                                          sum(s.get("featurize_words", []))), "ratio")
    for cmd in COMMANDS:
        out[f"cli.{cmd}.self_s"] = (_median(per_rep.get(f"self.{cmd}", [])), "s")
        out[f"cli.{cmd}.rss_mb"] = (_median(rss_mb.get(cmd, [])), "MB")
    out["trace.overhead"] = (_ratio(_median(traced_pipeline_s), _median(pipeline_s)) - 1.0,
                             "ratio")
    out["error_rate"] = (error_rate, "ratio")
    return out

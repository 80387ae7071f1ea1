"""Experiment orchestration: validated scenario configs, alpha/client-count
sweeps, attack batteries, mask-cancellation checks, and report emission.

Each scenario kind returns its (columns, rows, summary); `run_scenario` alone
wraps that in a report with the config echo.  Reports separate a header
(timestamp, schema version) from the body; bodies are byte-identical across
reruns with the same config and seeds.
"""

from __future__ import annotations

import dataclasses
import inspect
import io
import json
import os
import tempfile
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Callable

import numpy as np

from . import adversary, aggregators, fedcore, secagg
from .data import GLYPH_CLASSES, GLYPH_DIM, make_glyphs, partition
from .models import TinyModel, accuracy, count_params, flatten, init_model, sgd_step, unflatten
from .models import Batch
from .numeric import ParameterError, Rng, check_alpha, uniform_mask, vec_mean

REPORT_SCHEMA_VERSION = 1
CSV_SCHEMA_VERSION = 1

# Sweep grid defaults: client counts and mask levels of the headline sweep.
DEFAULT_CLIENT_COUNTS = (10, 100, 1000)
DEFAULT_ALPHAS = (0.0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 0.8, 1.0)

# fed_training partitions this many glyph examples per class among its clients.
FED_GLYPHS_PER_CLASS = 10


class ConfigError(ValueError):
    """Scenario configuration rejected; the message names the field."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# (what the value must be, its check, the fields it applies to)
_FIELD_TYPES = (
    ("an integer", _is_int, ("n", "k", "dim", "sybil_count", "retry_limit", "n_mask_seeds")),
    ("a number", _is_number, ("alpha",)),
    ("a string", lambda v: isinstance(v, str), ("kind", "strategy", "aggregator")),
    ("a list of integers", lambda v: isinstance(v, tuple) and all(map(_is_int, v)),
     ("client_counts", "controlled_ids", "seeds")),
    ("a list of numbers", lambda v: isinstance(v, tuple) and all(map(_is_number, v)), ("alphas",)),
    ("an object", lambda v: isinstance(v, dict), ("aggregator_params", "dropout_after")),
    ("an integer or null", lambda v: v is None or _is_int(v), ("round_size",)),
    ("a string or null", lambda v: v is None or isinstance(v, str), ("output_dir",)),
)

# What an aggregator_params value must be, by the type of the rule's default
# for it; centered_clip's v0 defaults to None, meaning the inputs' median.
_PARAM_TYPES = {
    int: ("an integer", _is_int),
    float: ("a number", _is_number),
    str: ("a string", lambda v: isinstance(v, str)),
    type(None): ("a list of numbers", lambda v: isinstance(v, (list, tuple)) and all(map(_is_number, v))),
}


@dataclass(frozen=True)
class ScenarioConfig:
    kind: str = "secagg_run"
    n: int = 3
    k: int = 2
    dim: int = 4
    alpha: float = 0.0
    alphas: tuple = DEFAULT_ALPHAS
    client_counts: tuple = DEFAULT_CLIENT_COUNTS
    strategy: str = "honest_but_curious"
    sybil_count: int = 0
    controlled_ids: tuple = ()
    retry_limit: int = 10
    round_size: int | None = None
    aggregator: str = "mean"
    aggregator_params: dict = field(default_factory=dict)
    dropout_after: dict = field(default_factory=dict)  # client id -> last round
    seeds: tuple = (0,)
    n_mask_seeds: int = 30  # seed battery for the cancellation check
    output_dir: str | None = None

    def __post_init__(self):
        # types first, so the range checks below compare like with like
        for what, ok, names in _FIELD_TYPES:
            for name in names:
                if not ok(getattr(self, name)):
                    raise ConfigError(f"{name}: must be {what}")
        if self.kind not in SCENARIOS:
            raise ConfigError(f"kind: unknown experiment kind {self.kind!r}")
        if self.kind == "fed_training" and self.n > FED_GLYPHS_PER_CLASS * GLYPH_CLASSES:
            raise ConfigError(f"n: fed_training has {FED_GLYPHS_PER_CLASS * GLYPH_CLASSES} examples to split, got {self.n}")
        if not self.alphas:
            raise ConfigError("alphas: list must be nonempty")
        if any(c < 1 for c in self.client_counts):
            raise ConfigError("client_counts: every entry must be >= 1")
        if not self.seeds:
            raise ConfigError("seeds: list must be nonempty")
        if any(not (0 <= s < 2**64) for s in self.seeds):
            raise ConfigError("seeds: every entry must lie in [0, 2^64)")
        try:
            check_seed_count(self.n_mask_seeds)
        except ParameterError as exc:
            raise ConfigError(f"n_mask_seeds: {exc}") from exc
        # the library's own rules; each message starts with the field it rejects
        try:
            secagg.check_round(self.n, self.k, self.dim, self.dropout_after)
            check_alpha(self.alpha)
            _strategy(self).check_population(self.n)
            rule = aggregators.rule_for(self.aggregator)
        except ParameterError as exc:
            raise ConfigError(str(exc)) from exc
        try:
            for alpha in self.alphas:
                check_alpha(alpha)
        except ParameterError as exc:
            raise ConfigError(f"alphas: {exc}") from exc
        keywords = list(inspect.signature(rule).parameters.values())[1:]
        defaults = {p.name: p.default for p in keywords}
        for key, value in self.aggregator_params.items():
            if key not in defaults:
                raise ConfigError(f"aggregator_params: {self.aggregator} takes no parameter {key!r}")
            what, ok = _PARAM_TYPES[type(defaults[key])]
            if not ok(value):
                raise ConfigError(f"aggregator_params: {key} must be {what}")
        # a dry call on n zero vectors runs the rule's own range checks; the
        # vectors have the model's length when a v0 must match it
        dim = GLYPH_PARAM_COUNT if "v0" in self.aggregator_params else 1
        try:
            rule([np.zeros(dim)] * self.n, **self.aggregator_params)
        except ParameterError as exc:
            name = "aggregator_params" if self.aggregator_params else "aggregator"
            raise ConfigError(f"{name}: {exc}") from exc


def _strategy(cfg: ScenarioConfig) -> adversary.AdversaryStrategy:
    return adversary.AdversaryStrategy(
        kind=cfg.strategy,
        sybil_count=cfg.sybil_count,
        controlled_ids=cfg.controlled_ids,
        retry_limit=cfg.retry_limit,
        round_size=cfg.round_size,
    )


def scenario_from_dict(data: dict) -> ScenarioConfig:
    """Build a config from parsed JSON; unknown keys are rejected by name."""
    known = {f.name for f in dataclasses.fields(ScenarioConfig)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f"{unknown[0]}: unknown configuration key")
    # a JSON array becomes a tuple; a field that takes no list then fails its type check
    kwargs = {name: tuple(v) if isinstance(v, list) else v for name, v in data.items()}
    dropout = kwargs.get("dropout_after")
    if isinstance(dropout, dict):
        # JSON object keys are strings; client ids are integers
        try:
            kwargs["dropout_after"] = {int(k): v for k, v in dropout.items()}
        except ValueError as exc:
            raise ConfigError(f"dropout_after: client ids must be integers ({exc})") from exc
    return ScenarioConfig(**kwargs)


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    # json writes tuples as arrays; str client ids, since sort_keys would order int ids numerically
    return {**dataclasses.asdict(cfg), "dropout_after": {str(k): v for k, v in cfg.dropout_after.items()}}


def load_scenario(path: str) -> ScenarioConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file: invalid JSON ({exc})") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file: not UTF-8 ({exc})") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file: top level must be an object")
    return scenario_from_dict(data)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class ExperimentReport:
    config: dict  # config echo; reparsing it reproduces the run
    columns: tuple
    rows: list  # list of tuples matching columns
    summary: dict

    def body_json(self) -> str:
        """Deterministic report body: identical configs give identical bytes.
        Strict JSON: a NaN or infinity raises instead of writing a bare token."""
        return json.dumps(
            {
                "schema_version": REPORT_SCHEMA_VERSION,
                "config": self.config,
                "columns": list(self.columns),
                "rows": [list(r) for r in self.rows],
                "summary": self.summary,
            },
            sort_keys=True,
            allow_nan=False,
        )

    def to_json(self, timestamp: str = "") -> str:
        header = json.dumps({"timestamp": timestamp, "schema_version": REPORT_SCHEMA_VERSION})
        return header + "\n" + self.body_json()

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(f"# csv_schema={CSV_SCHEMA_VERSION}\n")
        buf.write(",".join(self.columns) + "\n")
        for row in self.rows:
            buf.write(",".join(_csv_cell(c) for c in row) + "\n")
        return buf.getvalue()


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-report-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Mask-cancellation check
# ---------------------------------------------------------------------------


def check_seed_count(n_seeds: int) -> None:
    """The seed battery's one rule, shared by `clt_check` and the config."""
    if n_seeds < 2:
        raise ParameterError("need at least 2 seeds")


def clt_check(n: int, alpha: float, dim: int, n_seeds: int, seed: int) -> dict:
    """Empirical std of the mean of n uniform masks vs alpha / sqrt(3 n).

    One mask per client per seed; the statistic pools the mean vector's
    coordinates across all seeds.
    """
    check_seed_count(n_seeds)
    predicted = alpha / np.sqrt(3.0 * n)
    root = Rng(seed).child("clt", n, alpha)
    samples = []
    for s in range(n_seeds):
        srng = root.child("seed", s)
        masks = [uniform_mask(dim, alpha, srng.child("client", i)) for i in range(n)]
        samples.append(vec_mean(masks))
    pooled = np.concatenate(samples)
    empirical = float(np.std(pooled))
    rel_err = abs(empirical - predicted) / predicted if predicted > 0 else 0.0
    return {
        "n": n,
        "alpha": alpha,
        "dim": dim,
        "n_seeds": n_seeds,
        "predicted_std": float(predicted),
        "empirical_std": empirical,
        "rel_err": float(rel_err),
    }


# ---------------------------------------------------------------------------
# Glyph task baseline for the accuracy sweeps
# ---------------------------------------------------------------------------

GLYPH_MODEL_SIZES = (GLYPH_DIM, 32, GLYPH_CLASSES)
# the length of each vector fed_training aggregates
GLYPH_PARAM_COUNT = count_params(GLYPH_MODEL_SIZES)


def glyph_eval_set():
    return make_glyphs(20, Rng(7).child("glyph-eval"))


def pretrained_glyph_model() -> TinyModel:
    """A small classifier trained to high accuracy on the bundled glyph task.

    800 minibatch SGD steps at eta 0.5 from seed 7.  Weights are clipped to
    [-0.1, 0.1] after every step, keeping them on the scale of real deep
    networks' parameters so unit-scale additive masks are individually
    destructive while their client-average still cancels out.
    Deterministic: every call trains the same model from scratch.
    """
    rng = Rng(7)
    inputs, labels = make_glyphs(30, rng.child("train-data"))
    model = init_model(GLYPH_MODEL_SIZES, activation="tanh", rng=rng.child("init"))
    n = inputs.shape[0]
    order_rng = rng.child("batches")
    for _ in range(800):
        idx = order_rng.choice(n, 32)
        model = sgd_step(model, Batch(inputs=inputs[idx], labels=labels[idx]), 0.5, "cross_entropy")
        model = unflatten(model, np.clip(flatten(model), -0.1, 0.1))
    return model


# ---------------------------------------------------------------------------
# Sweeps and batteries
# ---------------------------------------------------------------------------


def masked_global_cell(model: TinyModel, n: int, alpha: float, eval_inputs, eval_labels, rng: Rng):
    """One sweep cell: n masked copies of the model, their mean, accuracies.

    Local accuracy is averaged over at most 50 sampled clients to keep large
    n affordable; the global model always averages all n masks.
    """
    w = flatten(model)
    masks = [uniform_mask(w.shape[0], alpha, rng.child("client", i)) for i in range(n)]
    global_model = unflatten(model, w + vec_mean(masks))
    global_acc = accuracy(global_model, eval_inputs, eval_labels)
    probe = range(n) if n <= 50 else [int(i) for i in rng.child("probe").choice(n, 50)]
    local_accs = [accuracy(unflatten(model, w + masks[i]), eval_inputs, eval_labels) for i in probe]
    return float(np.mean(local_accs)), float(global_acc)


def alpha_sweep(cfg: ScenarioConfig) -> tuple:
    """Client-count x alpha accuracy grid on the glyph task.

    Per (n, alpha): mean local accuracy of masked client models and accuracy
    of their average, seed-averaged; plus the per-n tolerance (largest alpha
    whose global accuracy stays within 2 points of the unmasked baseline).
    """
    model = pretrained_glyph_model()
    eval_inputs, eval_labels = glyph_eval_set()
    baseline = accuracy(model, eval_inputs, eval_labels)
    rows = []
    tolerance = {}
    for n in cfg.client_counts:
        for alpha in cfg.alphas:
            locals_, globals_ = [], []
            for s in cfg.seeds:
                rng = Rng(s).child("sweep", n, alpha)
                la, ga = masked_global_cell(model, n, alpha, eval_inputs, eval_labels, rng)
                locals_.append(la)
                globals_.append(ga)
            mean_local = float(np.mean(locals_))
            mean_global = float(np.mean(globals_))
            rows.append((n, float(alpha), mean_local, mean_global))
            if mean_global >= baseline - 0.02:
                tolerance[n] = max(tolerance.get(n, 0.0), float(alpha))
    summary = {
        "baseline_accuracy": float(baseline),
        "tolerance_by_n": {str(n): tolerance.get(n, 0.0) for n in cfg.client_counts},
    }
    return ("n", "alpha", "mean_local_accuracy", "global_accuracy"), rows, summary


def _scenario_inputs(cfg: ScenarioConfig, seed: int):
    rng = Rng(seed).child("inputs")
    return [rng.child(i).uniform(-1.0, 1.0, cfg.dim) for i in range(cfg.n)]


def secagg_round(cfg: ScenarioConfig, seed: int):
    """One seed's client inputs and the transcript of one protocol round on them."""
    inputs = _scenario_inputs(cfg, seed)
    return inputs, secagg.run_protocol(inputs, cfg.k, seed=seed, dropout_after=cfg.dropout_after).transcript


def attack_battery(cfg: ScenarioConfig) -> tuple:
    """Run the configured adversary strategy across the seed battery."""
    strategy = _strategy(cfg)
    rows = []
    successes = 0
    for s in cfg.seeds:
        scenario = adversary.AttackScenario(inputs=tuple(_scenario_inputs(cfg, s)), k=cfg.k, seed=s)
        report = adversary.run_attack(scenario, strategy)
        rows.append((cfg.strategy, s, report.success, len(report.recovered_field), report.rounds_consumed))
        successes += int(report.success)
    return ("strategy", "seed", "success", "recovered_count", "rounds"), rows, {"success_rate": successes / len(cfg.seeds)}


def secagg_report(cfg: ScenarioConfig) -> tuple:
    """Per seed: whether the round aborted, and the decoded aggregate's largest
    deviation from the plain sum (None for an aborted seed)."""
    rows = []
    max_dev = 0.0
    aborts = 0
    for s in cfg.seeds:
        inputs, transcript = secagg_round(cfg, s)
        if transcript.aborted:
            aborts += 1
            rows.append((s, True, transcript.abort_reason, None))
            continue
        expected = np.sum([inputs[i] for i in transcript.included], axis=0)
        dev = float(np.max(np.abs(transcript.aggregate - expected)))
        max_dev = max(max_dev, dev)
        rows.append((s, False, "", dev))
    return ("seed", "aborted", "abort_reason", "max_deviation"), rows, {"aborts": aborts, "max_deviation": max_dev}


def fed_training_report(cfg: ScenarioConfig) -> tuple:
    model = pretrained_glyph_model()
    eval_inputs, eval_labels = glyph_eval_set()
    rows = []
    for s in cfg.seeds:
        rng = Rng(s)
        inputs, labels = make_glyphs(FED_GLYPHS_PER_CLASS, rng.child("data"))
        parts = partition(inputs, labels, cfg.n, rng.child("partition"))
        fed_cfg = fedcore.FedConfig(alpha=cfg.alpha, aggregator=cfg.aggregator, aggregator_params=dict(cfg.aggregator_params))
        trained = fedcore.run_fedavg(model, parts, fed_cfg, rng.child("fed"))
        rows.append((s, accuracy(trained, eval_inputs, eval_labels)))
    return ("seed", "global_accuracy"), rows, {"mean_accuracy": float(np.mean([r[1] for r in rows]))}


def clt_report(cfg: ScenarioConfig) -> tuple:
    rows = []
    worst = 0.0
    for n in cfg.client_counts:
        for alpha in cfg.alphas:
            if alpha == 0.0:
                continue
            cell = clt_check(n, alpha, dim=cfg.dim, n_seeds=cfg.n_mask_seeds, seed=cfg.seeds[0])
            rows.append((n, alpha, cell["predicted_std"], cell["empirical_std"], cell["rel_err"]))
            worst = max(worst, cell["rel_err"])
    return ("n", "alpha", "predicted_std", "empirical_std", "rel_err"), rows, {"max_rel_err": worst}


def _clt_failure(report: ExperimentReport) -> str | None:
    if report.summary["max_rel_err"] > 0.10:
        return "empirical mask-mean std deviates more than 10% from prediction"
    return None


@dataclass(frozen=True)
class Scenario:
    build: Callable[[ScenarioConfig], tuple]  # the kind's (columns, rows, summary)
    alias: str | None = None  # CLI subcommand that runs this kind directly
    # pass/fail rule on the finished report: a failure message, or None
    check: Callable[[ExperimentReport], str | None] = lambda report: None


# The one list of scenario kinds: config validation, run_scenario and the CLI
# subcommands are all derived from it.
SCENARIOS = {
    "secagg_run": Scenario(secagg_report),
    "attack_demo": Scenario(attack_battery, alias="attack"),
    "fed_training": Scenario(fed_training_report),
    "alpha_sweep": Scenario(alpha_sweep, alias="sweep"),
    "clt_check": Scenario(clt_report, alias="clt-check", check=_clt_failure),
}


def run_scenario(cfg: ScenarioConfig) -> ExperimentReport:
    """Run a validated scenario through its table row and wrap its rows in the
    one report envelope, with the config echo; optionally save reports."""
    columns, rows, summary = SCENARIOS[cfg.kind].build(cfg)
    report = ExperimentReport(config=scenario_to_dict(cfg), columns=columns, rows=rows, summary=summary)
    if cfg.output_dir:
        base = os.path.join(cfg.output_dir, f"{cfg.kind}-report")
        stamp = datetime.now(timezone.utc).isoformat()
        write_atomic(base + ".json", report.to_json(timestamp=stamp))
        write_atomic(base + ".csv", report.to_csv())
    return report

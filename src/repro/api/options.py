"""Every run knob, declared once: :class:`RunOptions`.

The paper's flow has six real switches — the four untestability sources
and the two Fig. 6 tie-flop ablations — and they live in
:class:`~repro.core.results.FlowConfig`.  Every other knob is a runtime
choice, declared exactly once as a :class:`RunOptions` field whose
:class:`Knob` metadata (normaliser, help text, CLI flag, grid axis)
drives every surface that accepts it:

* the ``analyze`` / ``sweep`` / ``corpus`` / ``submit`` CLI flags
  (:func:`add_run_flags`, :meth:`RunOptions.from_namespace`);
* the run-level axes of :class:`~repro.api.ScenarioGrid`
  (:data:`RUN_AXES`, :func:`normalise_knob`);
* the run keys of corpus and service specs (:func:`options_from_spec`).

Every field is optional; ``None`` means "unset — defer to the next
layer".  Precedence is one chain of :meth:`RunOptions.merged_with`:
:data:`DEFAULT_RUN_OPTIONS` ← session ← call ← scenario.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field, fields, replace
from typing import (Any, Callable, Dict, Iterable, Mapping, Optional,
                    Sequence, Tuple)

from repro.atpg.engine import AtpgEffort, resolve_effort


def parse_flag(value: object) -> bool:
    """Coerce a boolean knob value, accepting the CLI spellings.

    ``bool("off")`` is ``True``, so strings are resolved the way the CLI
    resolves them and anything unrecognised is rejected.
    """
    if isinstance(value, (bool, int)):
        return bool(value)
    lowered = str(value).strip().lower()
    if lowered in ("true", "on", "yes", "1"):
        return True
    if lowered in ("false", "off", "no", "0"):
        return False
    raise ValueError(f"bad boolean value {value!r}; expected on/off")


def _fault_model(value: object) -> str:
    from repro.faults.models import resolve_fault_model
    return resolve_fault_model(value).name  # type: ignore[arg-type]


def _jobs(value: object) -> int:
    from repro.simulation.sharded import resolve_jobs
    return resolve_jobs(int(value), cap=False)  # type: ignore[call-overload]


def _atpg_backend(value: object) -> str:
    from repro.atpg.portfolio import resolve_atpg_backend
    return resolve_atpg_backend(value).name


def _fault_model_names() -> Sequence[str]:
    from repro.faults.models import fault_model_names
    return fault_model_names()


def _atpg_backend_names() -> Sequence[str]:
    from repro.atpg.portfolio import atpg_backend_names
    return atpg_backend_names()


@dataclass(frozen=True)
class Knob:
    """The declaration of one run knob (a RunOptions field's metadata)."""

    normalise: Callable[[Any], Any]
    help: str
    #: Exposed as ``--<name>`` on the CLI subcommands that select it.
    flag: bool = True
    #: A run-level :class:`~repro.api.ScenarioGrid` axis.
    axis: bool = False
    #: Settable per call and in corpus/service specs (``False``: a
    #: session-level knob).
    per_call: bool = True
    choices: Optional[Callable[[], Sequence[str]]] = None
    metavar: Optional[str] = None


def _knob(normalise: Callable[[Any], Any], help: str, **declaration) -> Any:
    return field(default=None, metadata={
        "knob": Knob(normalise, help, **declaration)})


@dataclass(frozen=True)
class RunOptions:
    """Every per-run knob, normalized, in one frozen picklable value.

    Construction normalises each field eagerly with its knob's normaliser
    (unknown efforts, fault models and ATPG backends, and ``jobs`` below
    1, raise a :class:`ValueError` spelling the accepted values), so a bad
    bundle fails at the call site, not deep inside a worker process.
    """

    effort: Any = _knob(
        resolve_effort, "ATPG effort of the structural engine (default: tie)",
        axis=True, choices=lambda: [e.value for e in AtpgEffort])
    fault_model: Optional[str] = _knob(
        _fault_model,
        "fault model to enumerate and classify (default: stuck_at)",
        axis=True, choices=_fault_model_names)
    jobs: Optional[int] = _knob(
        _jobs, "run the fault-population engines on N warm pool workers "
               "(identical results; default: serial)", metavar="N")
    static_prune: Optional[bool] = _knob(
        parse_flag, "pre-classify statically proven untestable faults "
                    "before PODEM (FULL effort only; default: on)",
        axis=True)
    static_learning: Optional[bool] = _knob(
        parse_flag, "let PODEM consult learned implications and SCOAP "
                    "guidance (FULL effort only; default: on)", flag=False)
    store: Any = _knob(
        lambda value: value,
        "durable artifact store directory (or 'backend:location' spec); "
        "pass results persist there and replay across runs",
        per_call=False, metavar="DIR")
    atpg_backend: Optional[str] = _knob(
        _atpg_backend, "ATPG portfolio backend for the FULL-effort search "
                       "phase (identical verdicts; default: podem)",
        axis=True, choices=_atpg_backend_names)
    atpg_seed: Optional[int] = _knob(
        int, "seed for randomized ATPG backends such as podem-restart "
             "(identical verdicts under every seed; default: the engine "
             "seed)", metavar="N")

    def __post_init__(self) -> None:
        for name, knob in knobs().items():
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, knob.normalise(value))

    # ------------------------------------------------------------------ #
    def merged_with(self, other: Optional["RunOptions"]) -> "RunOptions":
        """A new bundle where ``other``'s set (non-None) fields win."""
        if other is None:
            return self
        updates = {f.name: getattr(other, f.name) for f in fields(self)
                   if getattr(other, f.name) is not None}
        return replace(self, **updates) if updates else self

    def with_store_spec(self) -> "RunOptions":
        """A copy whose ``store`` is reduced to a picklable spec string.

        A live :class:`~repro.store.base.ArtifactStore` instance does not
        cross process boundaries; its location string does, and the worker
        re-opens the same on-disk store from it.  A custom backend without
        a root has no string spelling and reduces to ``None``.
        """
        store = self.store
        if store is None or isinstance(store, str):
            return self
        root = getattr(store, "root", None)
        return replace(self, store=str(root) if root is not None else None)

    @classmethod
    def from_namespace(cls, args: argparse.Namespace) -> "RunOptions":
        """The bundle of the run flags an :func:`add_run_flags` parser read."""
        return cls(**{name: getattr(args, name) for name in knobs()
                      if hasattr(args, name)})


def knobs() -> Dict[str, Knob]:
    """Every run knob by field name, in declaration order."""
    return {f.name: f.metadata["knob"] for f in fields(RunOptions)}


#: The defaults every layer falls back to.  ``store``, ``atpg_backend``
#: and ``atpg_seed`` stay unset: no store, the ``podem`` backend, the
#: engine's own seed.
DEFAULT_RUN_OPTIONS = RunOptions(effort=AtpgEffort.TIE,
                                 fault_model="stuck_at", jobs=1,
                                 static_prune=True, static_learning=True)

#: The knobs a :class:`~repro.api.ScenarioGrid` expands at run level.
RUN_AXES: Tuple[str, ...] = tuple(
    name for name, knob in knobs().items() if knob.axis)

#: The knobs a corpus or service spec may set (every per-call knob).
SPEC_KEYS: Tuple[str, ...] = tuple(
    name for name, knob in knobs().items() if knob.per_call)


def flag_of(name: str) -> str:
    """The CLI flag of the named run knob (``fault_model`` → ``--fault-model``)."""
    return "--" + name.replace("_", "-")


def normalise_knob(name: str, value: object) -> Any:
    """Normalise one value of the named knob (raises ValueError)."""
    return knobs()[name].normalise(value)


def options_from_spec(spec: Mapping[str, Any], *, extra_keys: Iterable[str],
                      what: str) -> RunOptions:
    """Parse the run keys of a JSON spec into a :class:`RunOptions`.

    ``extra_keys`` are the spec's own non-knob keys; anything that is
    neither one of them nor a :data:`SPEC_KEYS` knob is rejected, and so
    is a value its knob's normaliser refuses.  Errors are
    :class:`ValueError` prefixed with ``what``.
    """
    allowed = set(extra_keys) | set(SPEC_KEYS)
    unknown = sorted(set(spec) - allowed)
    if unknown:
        raise ValueError(
            f"{what}: unknown key(s) {', '.join(map(repr, unknown))}; "
            f"expected some of: {', '.join(sorted(allowed))}")
    try:
        return RunOptions(**{k: v for k, v in spec.items() if k in SPEC_KEYS})
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what}: {exc}") from None


def add_run_flags(parser: argparse.ArgumentParser, names: Iterable[str], *,
                  help: Optional[Mapping[str, str]] = None,
                  required: Iterable[str] = ()) -> None:
    """Add the ``--<knob>`` flags of the named run knobs to a parser.

    ``help`` overrides a knob's help text on this parser; ``required``
    names the knobs the parser cannot do without.  Values land under the
    field name, so :meth:`RunOptions.from_namespace` reads them back.
    """
    declared = knobs()
    for name in names:
        knob = declared[name]
        if not knob.flag:
            raise ValueError(f"run knob {name!r} has no CLI flag")
        kwargs: Dict[str, Any] = {"dest": name, "metavar": knob.metavar,
                                  "help": (help or {}).get(name, knob.help)}
        if name in required:
            kwargs["required"] = True
        if knob.normalise is parse_flag:
            kwargs["action"] = argparse.BooleanOptionalAction
            del kwargs["metavar"]
        elif knob.choices is not None:
            kwargs["choices"] = list(knob.choices())
        else:
            kwargs["type"] = _argument_type(knob.normalise)
        parser.add_argument(flag_of(name), **kwargs)


def _argument_type(normalise: Callable[[Any], Any]) -> Callable[[str], Any]:
    def convert(text: str) -> Any:
        try:
            return normalise(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert

"""Generic named-component registry with spec-string parsing.

Every pluggable component family in this package — healers, adversaries,
graph generators, wave-size schedules, and metrics — is published through
one :class:`Registry` instance mapping short names to factories. This
module is the single implementation behind all of them; it owns the two
concerns that used to be re-implemented (three times!) at each call site:

**Spec strings.** A component reference is either a bare registry name
(``"dash"``) or a *spec string* carrying constructor arguments inline::

    "random-wave:size=8,schedule=geometric"
    "erdos_renyi:p=0.1"
    "constant:8"                       # positional arguments allowed
    "connectivity:period=4"

:func:`parse_spec` splits the name at the first ``":"`` and the argument
list on ``","``; each ``key=value`` token becomes a keyword argument and
each bare token a positional one. Values are coerced with
:func:`ast.literal_eval` where possible (``8`` → int, ``0.1`` → float,
``(1, 2)`` → tuple, case-insensitive ``true``/``false``/``none``) and kept
as strings otherwise — which is exactly what lets specs nest: the
``schedule=geometric:initial=4`` token stays the string
``"geometric:initial=4"`` and is parsed again by the wave-schedule
registry. Brackets must balance, and nested specs cannot contain ``","``:
pass structured params (e.g. ``ExperimentSpec.adversary_params``) for
multi-argument nesting or a value with a lone bracket.

**Binding.** :meth:`Registry.bind` turns a spec into its factory's
arguments — the spec's own, then ``overrides``, runtime-owned ``force``
values and a caller-derived ``seed`` — and checks that they bind with
every required parameter filled. :meth:`Registry.make` is ``bind`` plus
the factory call, so a caller checks a spec by binding it with exactly
what it will supply to ``make``.

Registries behave as read-only mappings (``"dash" in HEALERS``,
``sorted(HEALERS)``, ``HEALERS["dash"]``), so all pre-existing dict-style
call sites keep working.

The registry *instances* live next to their component families —
:data:`repro.core.registry.HEALERS`, :data:`repro.adversary.ADVERSARIES`,
:data:`repro.graph.generators.GENERATORS`,
:data:`repro.adversary.waves.WAVE_SCHEDULES`,
:data:`repro.sim.metrics.METRICS` — and :func:`component_registries`
collects them all (lazily, to keep this module import-cycle-free).
"""

from __future__ import annotations

import ast
import inspect
from collections.abc import Mapping
from typing import Callable, Iterator

from repro.errors import ConfigurationError

__all__ = ["Registry", "parse_spec", "component_registries"]


def _coerce(text: str) -> object:
    """Best-effort literal coercion of one spec-string value."""
    t = text.strip()
    low = t.lower()
    if low in ("true", "false", "none"):
        return {"true": True, "false": False, "none": None}[low]
    try:
        return ast.literal_eval(t)
    except (ValueError, SyntaxError):
        return t


def _split_args(spec: str, text: str) -> list[str]:
    """Split ``spec``'s argument list ``text`` on commas, bracket-aware.

    Commas inside ``()``/``[]``/``{}`` belong to a literal value
    (``script=(0, 1)``) and do not separate tokens. A closing bracket
    with no opener, or an opener never closed, raises.
    """
    tokens: list[str] = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
            if depth < 0:
                break
        elif ch == "," and depth == 0:
            tokens.append(text[start:i])
            start = i + 1
    if depth:
        raise ConfigurationError(
            f"component spec has unbalanced brackets: {spec!r}"
        )
    tokens.append(text[start:])
    return tokens


def parse_spec(spec: str) -> tuple[str, tuple[object, ...], dict[str, object]]:
    """Split a spec string into ``(name, args, kwargs)``.

    ``"neighbor-of-max"`` → ``("neighbor-of-max", (), {})``;
    ``"random-wave:size=8,schedule=geometric"`` →
    ``("random-wave", (), {"size": 8, "schedule": "geometric"})``;
    ``"constant:8"`` → ``("constant", (8,), {})``. Raises
    :class:`~repro.errors.ConfigurationError` on malformed input
    (empty name, empty token, non-identifier key, positional after
    keyword, unbalanced brackets).
    """
    if not isinstance(spec, str):
        raise ConfigurationError(
            f"component spec must be a string, got {spec!r}"
        )
    name, sep, rest = spec.partition(":")
    name = name.strip()
    if not name:
        raise ConfigurationError(f"component spec has no name: {spec!r}")
    args: list[object] = []
    kwargs: dict[str, object] = {}
    if sep and not rest.strip():
        raise ConfigurationError(
            f"component spec has a trailing ':': {spec!r}"
        )
    if rest.strip():
        for token in _split_args(spec, rest):
            token = token.strip()
            if not token:
                raise ConfigurationError(
                    f"component spec has an empty argument token: {spec!r}"
                )
            key, eq, value = token.partition("=")
            if eq:
                key = key.strip()
                if not key.isidentifier():
                    raise ConfigurationError(
                        f"bad argument name {key!r} in spec {spec!r}"
                    )
                if not value.strip():
                    raise ConfigurationError(
                        f"empty value for argument {key!r} in spec {spec!r}"
                    )
                if key in kwargs:
                    raise ConfigurationError(
                        f"duplicate argument {key!r} in spec {spec!r}"
                    )
                kwargs[key] = _coerce(value)
            else:
                if kwargs:
                    raise ConfigurationError(
                        f"positional argument {token!r} after keyword "
                        f"arguments in spec {spec!r}"
                    )
                args.append(_coerce(token))
    return name, tuple(args), kwargs


class Registry(Mapping):
    """Name → factory mapping for one pluggable component family.

    Parameters
    ----------
    kind:
        Human-readable family name used in error messages
        (``"healer"``, ``"adversary"``, ...).
    initial:
        Optional ``{name: factory}`` seed content.

    A factory is any callable returning the component — typically the
    component class itself. Lookup is dict-like; :meth:`bind` checks a
    spec against what its caller will supply, and :meth:`make` builds
    from what it binds.
    """

    def __init__(
        self, kind: str, initial: Mapping[str, Callable] | None = None
    ) -> None:
        self.kind = kind
        self._factories: dict[str, Callable] = dict(initial or {})
        self._signatures: dict[str, inspect.Signature | None] = {}

    # ------------------------------------------------------------------
    # Mapping protocol (read-only dict compatibility)
    # ------------------------------------------------------------------
    def __getitem__(self, name: str) -> Callable:
        return self._factories[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._factories)

    def __len__(self) -> int:
        return len(self._factories)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Registry({self.kind!r}, {self.names()})"

    # ------------------------------------------------------------------
    # Registration and lookup
    # ------------------------------------------------------------------
    def register(self, name: str, factory: Callable | None = None):
        """Register ``factory`` under ``name``; usable as a decorator.

        Re-registering an existing name raises (shadowing a component
        silently is a debugging nightmare); deleting is not supported.
        """
        def _add(fn: Callable) -> Callable:
            if name in self._factories:
                raise ConfigurationError(
                    f"{self.kind} {name!r} is already registered"
                )
            self._factories[name] = fn
            return fn

        return _add if factory is None else _add(factory)

    def alias(self, alias: str, name: str) -> None:
        """Register ``alias`` as a second name for an existing component.

        The alias shares the original's factory, so spec parsing,
        signature probing, and seed/force injection all behave
        identically (``"pa:n=100,backend=array"`` ≡
        ``"preferential_attachment:n=100,backend=array"``). Aliases show
        up in :meth:`names` like any other entry.
        """
        self.register(alias, self.factory(name))

    def names(self) -> list[str]:
        """All registered names, sorted."""
        return sorted(self._factories)

    def factory(self, name: str) -> Callable:
        """The factory for ``name``, with a helpful error on a miss."""
        try:
            return self._factories[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown {self.kind} {name!r}; "
                f"available: {', '.join(self.names())}"
            ) from None

    def _signature(self, name: str) -> inspect.Signature | None:
        if name not in self._signatures:
            try:
                self._signatures[name] = inspect.signature(self.factory(name))
            except (TypeError, ValueError):  # pragma: no cover - C factories
                self._signatures[name] = None
        return self._signatures[name]

    def accepts(self, name: str, param: str) -> bool:
        """Whether ``name``'s factory takes a parameter called ``param``."""
        sig = self._signature(name)
        if sig is None:
            return False
        p = sig.parameters.get(param)
        return p is not None and p.kind not in (
            inspect.Parameter.VAR_POSITIONAL,
            inspect.Parameter.VAR_KEYWORD,
        )

    # ------------------------------------------------------------------
    # Spec strings
    # ------------------------------------------------------------------
    def parse(
        self, spec: str
    ) -> tuple[str, tuple[object, ...], dict[str, object]]:
        """:func:`parse_spec` plus an unknown-name check."""
        name, args, kwargs = parse_spec(spec)
        self.factory(name)  # raises with the available names on a miss
        return name, args, kwargs

    def params(self, spec: str) -> dict[str, bool | None]:
        """Each named parameter of ``spec``'s factory: ``None`` where the
        spec sets it, else whether the factory requires it. Raises for
        arguments that do not bind. A report, not a check (the CLI routes
        ``--n``, ``--m`` and ``--backend`` by it)."""
        name, args, kwargs = self.parse(spec)
        sig = self._signature(name)
        if sig is None:
            return {}
        pinned = self._pinned(spec, sig, args, kwargs)
        return {
            p.name: None if p.name in pinned else p.default is p.empty
            for p in sig.parameters.values()
            if p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
        }

    def _pinned(
        self, spec: str, sig: inspect.Signature, args: tuple, kwargs: dict
    ) -> Mapping[str, object]:
        """The parameters ``args`` and ``kwargs`` set; raises where they
        do not bind."""
        if not (args or kwargs):
            return {}  # nothing set; bind_partial alone costs 1-2 µs
        try:
            return sig.bind_partial(*args, **kwargs).arguments
        except TypeError as exc:
            raise ConfigurationError(
                f"invalid {self.kind} spec {spec!r}: {exc}"
            ) from None

    def bind(
        self,
        spec: str,
        *,
        seed: int | None = None,
        overrides: Mapping[str, object] | None = None,
        force: Mapping[str, object] | None = None,
    ) -> tuple[str, tuple[object, ...], dict[str, object]]:
        """The factory's ``(name, args, kwargs)`` for ``spec``, as
        :meth:`make` builds it.

        Argument layering, lowest to highest precedence:

        * the spec string's own arguments, updated by ``overrides``
          (structured params, e.g. ``ExperimentSpec.adversary_params``);
        * ``force`` — runtime-owned values (a sweep forces ``n`` per
          cell this way), gated on factory acceptance; a spec that pins
          a forced parameter raises rather than silently winning or
          losing;
        * ``seed`` — injected iff the factory accepts a ``seed``
          parameter the layers above leave open.

        Raises :class:`~repro.errors.ConfigurationError` unless the name
        is registered, the arguments bind and every required parameter
        ends up filled. A caller checks a spec by binding it with exactly
        what it will supply to :meth:`make`.
        """
        name, args, kwargs = self.parse(spec)
        if overrides:
            kwargs.update(overrides)
        sig = self._signature(name)
        if sig is None:  # pragma: no cover - C factories
            return name, args, kwargs
        pinned = self._pinned(spec, sig, args, kwargs)
        if force:
            for key, value in force.items():
                if not self.accepts(name, key):
                    continue
                if key in pinned:
                    raise ConfigurationError(
                        f"invalid {self.kind} spec {spec!r}: {key} is "
                        "supplied by the runtime — remove it from the spec"
                    )
                kwargs[key] = value
        if seed is not None and "seed" not in pinned:
            if self.accepts(name, "seed"):
                kwargs.setdefault("seed", seed)
        missing = [
            p.name
            for p in sig.parameters.values()
            if p.default is p.empty
            and p.name not in pinned
            and p.name not in kwargs
            and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
        ]
        if missing:
            raise ConfigurationError(
                f"invalid {self.kind} spec {spec!r}: missing required "
                f"argument(s) {', '.join(missing)}"
            )
        return name, args, kwargs

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def make(
        self,
        spec: str,
        *,
        seed: int | None = None,
        overrides: Mapping[str, object] | None = None,
        force: Mapping[str, object] | None = None,
    ):
        """Instantiate a component from a name or spec string: the
        factory called with what :meth:`bind` binds."""
        name, args, kwargs = self.bind(
            spec, seed=seed, overrides=overrides, force=force
        )
        try:
            component = self._factories[name](*args, **kwargs)
        except TypeError as exc:
            raise ConfigurationError(
                f"cannot build {self.kind} {spec!r}: {exc}"
            ) from exc
        # Provenance: record how the component was built so a checkpoint
        # can rebuild an equivalent instance at resume (the arguments
        # *after* injection — same seed, same forced values). Components
        # with __slots__ (e.g. Graph) simply go without.
        try:
            component._registry_provenance = {
                "registry": self.kind,
                "name": name,
                "args": list(args),
                "kwargs": dict(kwargs),
            }
        except (AttributeError, TypeError):
            pass
        return component


def component_registries() -> dict[str, Registry]:
    """Every component registry in the package, keyed by family.

    Imported lazily so this module stays dependency-free (the domain
    modules import :class:`Registry` from here).
    """
    from repro.adversary import ADVERSARIES
    from repro.adversary.waves import WAVE_SCHEDULES
    from repro.core.registry import HEALERS
    from repro.graph.generators import GENERATORS
    from repro.sim.metrics import METRICS

    return {
        "healer": HEALERS,
        "adversary": ADVERSARIES,
        "generator": GENERATORS,
        "wave-schedule": WAVE_SCHEDULES,
        "metric": METRICS,
    }

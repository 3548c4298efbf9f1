"""Parser and serializer for the ``.fmc`` family-model format.

The format is line oriented, UTF-8, with ``#`` comments.  Sections appear in
this order (``rewards``, ``labels`` and ``specs`` are optional)::

    states N                 # states are 0 .. N-1
    initial S
    params                   # one entry per parameter, order is significant
    NAME : V1 V2 ...         #   ordered domain, distinct state indices
    trans                    # exactly one entry per state
    S : P1:NAME1 + P2:NAME2  #   weights are exact rationals summing to 1
    rewards                  # optional; omitted entries default to 0
    S : R
    labels                   # optional
    NAME : S1 S2 ...
    specs                    # optional
    NAME : SPEC

Numbers are exact rationals: ``1``, ``1/3`` and ``0.5`` are all accepted and
``0.1`` means one tenth, never a binary float.  A fraction's denominator is
positive.  A SPEC is one of::

    P<=0.3 F "label"    E>=5 F "label"     (relations <, <=, >=, >)
    Pmax F "label"      Emin F "label"     (objective-only queries)

``parse_family . serialize_family`` is the identity on canonical documents.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import FormatError, ModelError
from .family import (
    PROBABILITY,
    REWARD,
    FamilyModel,
    Specification,
)

_SECTIONS = ("params", "trans", "rewards", "labels", "specs")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_NUMBER_RE = re.compile(r"(\d+/\d*[1-9]\d*|\d+\.\d+|\.\d+|\d+)\Z")
_SPEC_RE = re.compile(
    r"([PE])\s*(?:(max|min)|(<=|>=|<|>)\s*(\d+/\d+|\d+\.\d+|\.\d+|\d+))"
    r'\s+F\s+"([^"]*)"\Z')


def _number(token: str, line: int | None) -> Fraction:
    if not _NUMBER_RE.match(token):
        raise FormatError(f"bad number {token!r}", line=line, code="bad-number")
    return Fraction(token)


def _name(token: str, line: int) -> str:
    if not _NAME_RE.match(token):
        raise FormatError(f"bad identifier {token!r}", line=line, code="syntax")
    return token


def parse_spec(text: str, line: int | None = None) -> Specification:
    """Parse one specification string of the grammar above."""
    m = _SPEC_RE.match(text.strip())
    if not m:
        raise FormatError(f"bad specification {text!r}", line=line,
                          code="syntax")
    letter, direction, relation, threshold, label = m.groups()
    kind = PROBABILITY if letter == "P" else REWARD
    if not label:
        raise FormatError("specification needs a goal label", line=line,
                          code="syntax")
    try:
        if direction:
            return Specification(kind=kind, goal=label, direction=direction)
        return Specification(kind=kind, goal=label, relation=relation,
                             threshold=_number(threshold, line))
    except ModelError as exc:
        raise FormatError(str(exc), line=line, code=exc.code) from None


def parse_family(text: str) -> tuple[FamilyModel, dict[str, Specification]]:
    """Parse a ``.fmc`` document into a validated family plus its named specs."""
    n_states = None
    initial = None
    params: list[tuple[str, tuple[int, ...]]] = []
    trans: dict[int, list[tuple[Fraction, str]]] = {}
    rewards: dict[int, Fraction] = {}
    labels: dict[str, set[int]] = {}
    spec_strings: list[tuple[str, str, int]] = []
    section = None
    seen_sections: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = line.split(None, 1)[0]
        if head in ("states", "initial"):
            parts = line.split()
            if len(parts) != 2 or not parts[1].isdigit():
                raise FormatError(f"expected '{head} N'", line=lineno,
                                  code="syntax")
            if head == "states":
                if n_states is not None:
                    raise FormatError("duplicate 'states' directive",
                                      line=lineno, code="dup-section")
                n_states = int(parts[1])
            else:
                if initial is not None:
                    raise FormatError("duplicate 'initial' directive",
                                      line=lineno, code="dup-section")
                initial = int(parts[1])
            continue
        if line in _SECTIONS:
            if line in seen_sections:
                raise FormatError(f"duplicate section {line!r}", line=lineno,
                                  code="dup-section")
            seen_sections.add(line)
            section = line
            continue
        if ":" not in line:
            raise FormatError(f"expected 'KEY : ...', got {line!r}",
                              line=lineno, column=1, code="syntax")
        if section is None:
            raise FormatError("entry outside any section", line=lineno,
                              code="syntax")
        key, _, body = line.partition(":")
        key = key.strip()
        body = body.strip()

        if section == "params":
            name = _name(key, lineno)
            if any(name == n for n, _ in params):
                raise FormatError(f"duplicate parameter {name!r}", line=lineno,
                                  code="dup-param")
            values = tuple(_state_index(tok, lineno) for tok in body.split())
            if not values:
                raise FormatError(f"parameter {name!r} has an empty domain",
                                  line=lineno, code="empty-domain")
            params.append((name, values))
        elif section == "trans":
            state = _state_index(key, lineno)
            if state in trans:
                raise FormatError(f"duplicate row for state {state}",
                                  line=lineno, code="dup-entry")
            terms = []
            for part in body.split("+"):
                part = part.strip()
                prob_tok, colon, pname = part.partition(":")
                if not colon:
                    raise FormatError(f"expected 'PROB:PARAM', got {part!r}",
                                      line=lineno, code="syntax")
                terms.append((_number(prob_tok.strip(), lineno),
                              _name(pname.strip(), lineno)))
            total = sum(p for p, _ in terms)
            if total != 1:
                raise FormatError(
                    f"row of state {state} sums to {total}, expected 1",
                    line=lineno, code="row-sum")
            trans[state] = terms
        elif section == "rewards":
            state = _state_index(key, lineno)
            if state in rewards:
                raise FormatError(f"duplicate reward for state {state}",
                                  line=lineno, code="dup-entry")
            rewards[state] = _number(body, lineno)
        elif section == "labels":
            name = _name(key, lineno)
            if name in labels:
                raise FormatError(f"duplicate label {name!r}", line=lineno,
                                  code="dup-entry")
            states = {_state_index(tok, lineno) for tok in body.split()}
            if not states:
                raise FormatError(f"label {name!r} marks no state",
                                  line=lineno, code="syntax")
            labels[name] = states
        elif section == "specs":
            name = _name(key, lineno)
            if any(name == n for n, _, _ in spec_strings):
                raise FormatError(f"duplicate spec {name!r}", line=lineno,
                                  code="dup-entry")
            spec_strings.append((name, body, lineno))

    if n_states is None:
        raise FormatError("missing 'states' directive", code="missing-section")
    if initial is None:
        raise FormatError("missing 'initial' directive", code="missing-section")
    if not params:
        raise FormatError("missing 'params' section", code="missing-section")
    missing = [s for s in range(n_states) if s not in trans]
    if missing:
        raise FormatError(f"missing rows for states {missing}",
                          code="missing-section")
    extra = [s for s in trans if s >= n_states]
    if extra:
        raise FormatError(f"rows for unknown states {extra}", code="bad-state")

    name_to_idx = {name: i for i, (name, _) in enumerate(params)}
    rows = []
    for s in range(n_states):
        row = []
        for p, pname in trans[s]:
            if pname not in name_to_idx:
                raise FormatError(
                    f"state {s} references unknown parameter {pname!r}",
                    code="unknown-param")
            row.append((p, name_to_idx[pname]))
        rows.append(tuple(row))

    reward_tuple = None
    if "rewards" in seen_sections:
        bad = [s for s in rewards if s >= n_states]
        if bad:
            raise FormatError(f"rewards for unknown states {bad}",
                              code="bad-state")
        reward_tuple = tuple(rewards.get(s, Fraction(0))
                             for s in range(n_states))

    try:
        model = FamilyModel(
            n_states=n_states,
            initial=initial,
            param_names=tuple(name for name, _ in params),
            domains=tuple(dom for _, dom in params),
            rows=tuple(rows),
            rewards=reward_tuple,
            labels={n: frozenset(v) for n, v in labels.items()},
        )
    except ModelError as exc:
        raise FormatError(str(exc), code=exc.code) from None

    specs: dict[str, Specification] = {}
    for name, body, lineno in spec_strings:
        spec = parse_spec(body, line=lineno)
        if spec.goal not in model.labels:
            raise FormatError(f"spec {name!r} uses unknown label "
                              f"{spec.goal!r}", line=lineno,
                              code="unknown-label")
        if spec.kind == REWARD and model.rewards is None:
            raise FormatError(f"spec {name!r} needs a rewards section",
                              line=lineno, code="missing-section")
        specs[name] = spec
    return model, specs


def _state_index(token: str, line: int) -> int:
    if not token.isdigit():
        raise FormatError(f"bad state index {token!r}", line=line,
                          code="bad-state")
    return int(token)


def serialize_family(model: FamilyModel,
                     specs: dict[str, Specification] | None = None) -> str:
    """Render the canonical document; ``parse_family`` inverts it exactly."""
    out = [f"states {model.n_states}", f"initial {model.initial}", ""]
    out.append("params")
    for name, dom in zip(model.param_names, model.domains):
        out.append(f"{name} : {' '.join(str(v) for v in dom)}")
    out.append("")
    out.append("trans")
    for s, row in enumerate(model.rows):
        terms = " + ".join(f"{p}:{model.param_names[k]}" for p, k in row)
        out.append(f"{s} : {terms}")
    if model.rewards is not None:
        out.append("")
        out.append("rewards")
        for s, r in enumerate(model.rewards):
            out.append(f"{s} : {r}")
    if model.labels:
        out.append("")
        out.append("labels")
        for name in sorted(model.labels):
            states = " ".join(str(s) for s in sorted(model.labels[name]))
            out.append(f"{name} : {states}")
    if specs:
        out.append("")
        out.append("specs")
        for name, spec in specs.items():
            out.append(f"{name} : {spec}")
    out.append("")
    return "\n".join(out)

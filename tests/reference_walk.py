"""The parser's walk token by token, kept as a reference for hannum.parse.

This is the walk as it read before it went one myriad group at a time:
_walk steps through every token of every numeral, closing each group with
_close at its outer pivot, and _features scans the whole code list for the
feature flags. Nothing is memoized. It keeps its own lane tables, one lane
per era as the parser had them before it keyed its tables by grammar: the
nine-lane table of classify and _read_span reads every era apart, and each
profile gets a table of its own, with its name and ceiling. Only the morpheme
codes, the failure messages and the [1] rule messages (_one_rule) come from
hannum.parse, so parse, classify and _read_span here must match hannum's
value for value, error for error (kind, position and message), and
diagnostic for diagnostic.
"""

from __future__ import annotations

from functools import cache

from hannum.chronolect import EraConsistencyReport, EraVerdict, _coerce_tokens, _notes
from hannum.core import (
    CHRONOLOGY,
    EARLY_ERAS,
    Era,
    EraProfile,
    LingPolicy,
    OneBeforeInnerMultiplicand,
    YouPolicy,
    era_profile,
)
from hannum.parse import (
    _C_DAN,
    _C_LALT,
    _C_LIANG,
    _C_LING,
    _C_YOU,
    _HIGH,
    _K,
    _LATER,
    _LENIENT_MAX,
    _NOTATION,
    _OUT_OF_ERA,
    _OUTER,
    _SOLE_HIGH,
    _SOLE_TEN,
    _TEN,
    Features,
    NumeralParseError,
    ParseErrorKind,
    ParseOutcome,
    _one_rule,
)


class _Lanes:
    """A set of grammars read together, one bit of an alive mask each.

    Lane k is bit 1 << k; a profile of None is the lenient grammar. Each
    lane keeps its profile's name and ceiling.
    """

    def __init__(self, profiles: tuple[EraProfile | None, ...]) -> None:
        only = profiles[0] if len(profiles) == 1 else None
        self.era_checked = only.era if only is not None else None
        self.names = tuple(
            p.era.value if p is not None else "the lenient grammar"
            for p in profiles
        )
        self.maxes = tuple(
            p.max_value if p is not None else _LENIENT_MAX for p in profiles
        )
        self.ceilings = tuple(
            (mx, sum(1 << k for k, v in enumerate(self.maxes) if v == mx))
            for mx in sorted(set(self.maxes))
        )
        self.floor = min(self.maxes)
        self.all = (1 << len(profiles)) - 1
        self.lenient = self.elliptic = self.zero_bad = self.ling_req = self.inner_req = 0
        banned = [0] * (max(_NOTATION) + 1)
        one: list[dict[str, int]] = [{} for _ in range(_LATER + 2)]
        for k, p in enumerate(profiles):
            bit = 1 << k
            if p is None:
                self.lenient |= bit
                self.elliptic |= bit
                continue
            if p.ling_policy is LingPolicy.REQUIRED:
                self.elliptic |= bit
                self.ling_req |= bit
            if not p.zero_expressible:
                self.zero_bad |= bit
            lacks = {
                _C_LIANG: not p.liang_allowed,
                _C_LING: p.ling_policy is LingPolicy.FORBIDDEN,
                _C_YOU: p.you_policy is YouPolicy.FORBIDDEN,
                _C_DAN: p.era is not Era.SONG_QIN,
                _C_LALT: p.era is not Era.SONG_QIN,
            }
            for code, lacked in lacks.items():
                if lacked:
                    banned[code] |= bit
            if p.era in EARLY_ERAS:
                continue
            if p.inner_multiplicand_one is OneBeforeInnerMultiplicand.REQUIRE:
                self.inner_req |= bit
            for index, rules in enumerate(one):
                message = _one_rule(
                    p.leading_one_policy, p.inner_multiplicand_one,
                    index & ~1, bool(index & 1),
                )
                if message is not None:
                    rules[message] = rules.get(message, 0) | bit
        self.banned = banned
        self.one = tuple(
            tuple((mask, message) for message, mask in rules.items())
            for rules in one
        )

    def error(self, lane, failure):
        """The NumeralParseError of one rejecting lane."""
        kind, position, message = failure
        return NumeralParseError(
            kind,
            position,
            message.format(era=self.names[lane], ceiling=self.maxes[lane]),
        )


_LENIENT_LANES = _Lanes((None,))
# Every era in chronological order, then the lenient grammar.
_ALL_LANES = _Lanes((*(era_profile(e) for e in CHRONOLOGY), None))
_LENIENT_LANE = len(CHRONOLOGY)


@cache
def _profile_lanes(profile):
    """The one-lane table of a profile."""
    return _Lanes((profile,))


def _fail(fails, bad, kind, pos, msg):
    """Record the failure of every lane in bad; each lane fails only once."""
    lane = 0
    while bad:
        if bad & 1:
            fails[lane] = (kind, pos, msg)
        bad >>= 1
        lane += 1


def _break_one(fails, lanes, rules, pos):
    """Record where the lanes break one of rules; returns their mask."""
    broken = 0
    for mask, message in rules:
        bad = lanes & mask
        if bad:
            _fail(fails, bad, _K.RANK_ORDER_VIOLATION, pos, message)
            broken |= bad
    return broken


def _close(
    L: _Lanes,
    alive: int,
    fails: list[_Failure | None],
    diags: list[tuple[int, str]],
    members: list[tuple[int, int, bool, int]],
    coeff: int,
    total: int,
    prev_exp: int | None,
    first_idx: int,
    link_idx: int | None,
    first_group: bool,
    scale: int,
    closer_idx: int,
) -> tuple[int, int]:
    """Close a myriad group at 10^scale; returns (alive, new total).

    The checks that need the group's absolute scale run here, in this order:
    the [1] rule on the numeral's first term (whether an inner pivot is the
    sole multiplier of an outer pivot is known only now) or on a later group
    opened by a bare outer pivot, read from L.one; cross-group gap links
    against the previous outer pivot; and each lane's ceiling.
    """
    slot = None
    if not members:
        # A bare outer pivot opens the group (coefficient 1 implicit).
        slot, pos = _OUTER if first_group else _LATER, closer_idx
    elif first_group and members[0][0] == 1:
        _, exp, written, pos = members[0]
        if not exp:
            # A lone unit digit 1 under an outer pivot: [1][10^4] shape.
            slot = _OUTER + written if scale else None
        elif scale and len(members) == 1:
            slot = (_SOLE_TEN if exp == 1 else _SOLE_HIGH) + written
        else:
            slot = (_TEN if exp == 1 else _HIGH) + written
    rules = L.one[slot] if slot is not None else ()
    if rules:
        alive ^= _break_one(fails, alive, rules, pos)
    if prev_exp is not None:
        top_abs = scale + (members[0][1] if members else 0)
        gap = top_abs != prev_exp - 1
        if gap and link_idx is None:
            bad = alive & L.ling_req
            if bad:
                _fail(fails, bad, _K.RANK_ORDER_VIOLATION, first_idx,
                      f"rank gap after the 10^{prev_exp} pivot needs "
                      f"líng in {{era}}")
                alive ^= bad
            lenient = alive & L.lenient
            if lenient:
                diags.append((
                    lenient,
                    f"líng missing at the rank gap after the "
                    f"10^{prev_exp} pivot; accepted leniently "
                    f"(outer-pivot líng drop, a known regional elision)",
                ))
        elif not gap and link_idx is not None:
            _fail(fails, alive, _K.MISPLACED_LING, link_idx,
                  "líng marks a rank gap, but the following rank is "
                  "adjacent to the pivot before it")
            return 0, total
    total += (coeff if members else 1) * 10**scale
    if total > L.floor:
        bad = 0
        for ceiling, mask in L.ceilings:
            if total > ceiling:
                bad |= mask
        bad &= alive
        if bad:
            _fail(fails, bad, _K.OVERFLOW, closer_idx,
                  "value exceeds the {era} ceiling of {ceiling}")
            alive ^= bad
    return alive, total


def _walk(
    codes: list[int], L: _Lanes
) -> tuple[list[int | None], int, list[_Failure | None], list[tuple[int, str]]]:
    """Read codes under every lane of L in one left-to-right pass.

    Returns (values, elliptic, fails, diagnostics): each lane's value, or
    None where it rejects; the mask of accepting lanes that took the
    elliptic reading; each rejecting lane's first failure; and the
    diagnostics, each tagged with the mask of the lanes it belongs to.
    """
    n = len(codes)
    alive = L.all
    banned = L.banned
    lanes = len(L.names)
    values: list[int | None] = [None] * lanes
    fails: list[_Failure | None] = [None] * lanes
    diags: list[tuple[int, str]] = []
    readings: list[tuple[int, int]] = []
    elliptic = 0
    total = 0
    prev_exp: int | None = None
    # Current group state. members holds (digit_value, in_group_exp,
    # explicit_one, token_index); exponent 0 marks the unit slot.
    members: list[tuple[int, int, bool, int]] = []
    coeff = 0
    first_idx: int | None = None
    link_idx: int | None = None
    gap_idx: int | None = None
    you = False
    first_group = True
    # The elliptic reading of a trailing digit: (lanes, members, coeff,
    # first_idx) of the group it closes.
    fork: tuple[int, list[tuple[int, int, bool, int]], int, int | None] | None = None

    i = 0
    while alive and i < n:
        c = codes[i]
        bad = alive & banned[c]
        if bad:
            _fail(fails, bad, _K.OUT_OF_ERA_MORPHEME, i, _OUT_OF_ERA[c])
            alive ^= bad
            if not alive:
                break

        if c <= 23:
            # A term: a digit times an inner pivot, a bare inner pivot, or
            # a digit with no pivot after it (the unit slot, an elliptic
            # tail, or the multiplier of an outer pivot). k is its rank in
            # the group, 0 for the unit slot.
            explicit = c <= _C_LIANG
            nxt = codes[i + 1] if i + 1 < n else None
            if not explicit:
                value, k, step = 1, c - 20, 1
            else:
                if nxt is not None and nxt <= _C_LIANG:
                    _fail(fails, alive, _K.DIGIT_RUN_WITHOUT_PIVOT, i + 1,
                          "two digits in direct succession form no numeral")
                    break
                value = 2 if c == _C_LIANG else c
                if nxt is not None and 21 <= nxt <= 23:
                    k, step = nxt - 20, 2
                    if k == 1 and c == _C_LIANG:
                        _fail(fails, alive, _K.LIANG_BEFORE_SHI, i,
                              "liang never multiplies the pivot ten; only er does")
                        break
                else:
                    k, step = 0, 1
            above = members[-1][1] if members else None
            # A pending líng or yòu links this term to the one before it.
            linked = gap_idx is not None or you
            if gap_idx is not None:
                if above is None:
                    link_idx = gap_idx  # cross-group link, checked at close
                elif k == above - 1:
                    _fail(fails, alive, _K.MISPLACED_LING, gap_idx,
                          "líng marks a rank gap, but these ranks are adjacent")
                    break
                gap_idx = None
            you = False

            if not k:
                if nxt is None and not linked and i and 21 <= codes[i - 1] <= 28:
                    # A trailing bare digit after a pivot: the lanes that
                    # demand líng (and the lenient one) read it one rank
                    # below the pivot, the rest as the unit digit. Trailing
                    # liang is never a unit.
                    inferred = above - 1 if above is not None else (prev_exp or 1) - 1
                    if inferred >= 1:
                        if c == _C_LIANG:
                            if inferred == 1:
                                _fail(fails, alive, _K.LIANG_BEFORE_SHI, i,
                                      "the elliptic reading would put liang on "
                                      "the pivot ten")
                                break
                            ell = alive
                        else:
                            ell = alive & L.elliptic
                            lenient = alive & L.lenient
                            if lenient:
                                diags.append((
                                    lenient,
                                    f"AmbiguousElliptic: trailing digit reads as "
                                    f"the unit ({total + coeff + value}) or as an "
                                    f"elliptic rank "
                                    f"({total + coeff + value * 10**inferred}); the "
                                    f"contemporary elliptic reading is returned",
                                ))
                        if ell:
                            fork = (
                                ell,
                                [*members, (value, inferred, True, i)],
                                coeff + value * 10**inferred,
                                i if not members and first_idx is None else first_idx,
                            )
                            alive ^= ell
                            if not alive:
                                break
                if c == _C_LIANG:
                    if members:
                        _fail(fails, alive, _K.LIANG_IN_UNIT_SLOT, i,
                              "the unit slot of a complex numeral takes er, "
                              "never liang")
                        break
                    if nxt is None and n > 1:
                        _fail(fails, alive, _K.LIANG_IN_UNIT_SLOT, i,
                              "a trailing liang after a link word reads as a "
                              "unit digit, which liang cannot be")
                        break
                    if nxt is not None and not 24 <= nxt <= 28:
                        _fail(fails, alive, _K.LIANG_IN_UNIT_SLOT, i,
                              "standalone liang multiplies an outer pivot only")
                        break

            if above is not None:
                # A digit-led term that breaks descent reports only that; a
                # bare pivot first reports the missing líng where required.
                # The unit slot is never filled twice: after a unit digit
                # only an outer pivot is not already rejected.
                if not linked and k != above - 1 and (k < above or not explicit):
                    bad = alive & L.ling_req
                    if bad:
                        _fail(fails, bad, _K.RANK_ORDER_VIOLATION, i,
                              "rank gap inside the numeral needs líng in {era}")
                        alive ^= bad
                        if not alive:
                            break
                if k >= above:
                    _fail(fails, alive, _K.RANK_ORDER_VIOLATION, i + step - 1,
                          "pivot ranks must descend within a myriad group")
                    break
            if not explicit:
                if members or not first_group:
                    rules, lanes = L.one[_LATER], alive
                else:
                    # Without the sole-multiplier escape a bare opening pivot
                    # is already wrong; report it at its own token rather
                    # than at a later symptom.
                    rules = L.one[_TEN if k == 1 else _HIGH]
                    lanes = alive & L.inner_req
                if rules:
                    alive ^= _break_one(fails, lanes, rules, i)
                    if not alive:
                        break
            if not members and first_idx is None:
                first_idx = i
            members.append((value, k, explicit, i))
            coeff += value * 10**k
            i += step
            continue

        if c == 24 or c == 28:  # outer pivot closes the group
            exp = c - 20
            if gap_idx is not None:
                _fail(fails, alive, _K.MISPLACED_LING, gap_idx,
                      "a gap word must be followed by a digit, not a pivot "
                      "that closes the group")
                break
            if you:
                _fail(fails, alive, _K.MISPLACED_YOU, i - 1,
                      "the conjunction must be followed by an additive term, "
                      "not a group-closing pivot")
                break
            if prev_exp is not None and exp >= prev_exp:
                _fail(fails, alive, _K.RANK_ORDER_VIOLATION, i,
                      "outer pivots must descend across myriad groups")
                break
            if first_idx is None:
                first_idx = i
            alive, total = _close(
                L, alive, fails, diags, members, coeff, total, prev_exp,
                first_idx, link_idx, first_group, exp, i,
            )
            members = []
            coeff = 0
            first_idx = link_idx = None
            prev_exp = exp
            first_group = False
            i += 1
            continue

        if c == _C_LING or c >= _C_DAN:  # gap words
            if c != _C_LING:
                diags.append(
                    (alive, f"historical gap word {_NOTATION[c]} read as líng")
                )
            elif n == 1:  # standalone zero
                bad = alive & L.zero_bad
                if bad:
                    _fail(fails, bad, _K.MISPLACED_LING, 0,
                          "líng alone does not name zero in {era}")
                    alive ^= bad
                readings.append((alive, 0))
                break
            if not (i and 21 <= codes[i - 1] <= 28):
                _fail(fails, alive, _K.MISPLACED_LING, i,
                      "a gap word stands only between a pivot and a following "
                      "digit")
                break
            if i == n - 1:
                _fail(fails, alive, _K.MISPLACED_LING, i,
                      "a trailing gap word marks no gap")
                break
            gap_idx = i
            i += 1
            continue

        # You, the additive conjunction.
        if not (i and 21 <= codes[i - 1] <= 28):
            _fail(fails, alive, _K.MISPLACED_YOU, i,
                  "the conjunction joins a completed compound to a lower term")
            break
        if i == n - 1:
            _fail(fails, alive, _K.MISPLACED_YOU, i,
                  "the conjunction needs a following additive term")
            break
        you = True
        i += 1
    else:  # the walk was not cut short by a failure
        closed = total
        if alive and members:
            alive, closed = _close(
                L, alive, fails, diags, members, coeff, total, prev_exp,
                first_idx, link_idx, first_group, 0, n - 1,
            )
        if alive:
            readings.append((alive, closed))

    if fork is not None:
        ell, members, coeff, first_idx = fork
        elliptic, closed = _close(
            L, ell, fails, diags, members, coeff, total, prev_exp,
            first_idx, link_idx, first_group, 0, n - 1,
        )
        readings.append((elliptic, closed))
    for mask, value in readings:
        lane = 0
        while mask:
            if mask & 1:
                values[lane] = value
            mask >>= 1
            lane += 1
    return values, elliptic, fails, diags


def _codes(toks):
    return [t.code for t in toks]


def _features(codes, elliptic):
    uses_you = _C_YOU in codes
    uses_dan = _C_DAN in codes or _C_LALT in codes
    uses_ling = uses_dan or _C_LING in codes
    liang_present = _C_LIANG in codes
    leading_one = len(codes) >= 2 and codes[0] == 1 and 21 <= codes[1] <= 28
    one_inner_mult = False
    if 1 in codes:
        for j in range(len(codes) - 2):
            if (
                codes[j] == 1
                and 21 <= codes[j + 1] <= 23
                and codes[j + 2] in (24, 28)
            ):
                one_inner_mult = True
                break
    return Features(
        uses_you, uses_ling, uses_dan, liang_present, elliptic, leading_one,
        one_inner_mult,
    )


def _walk_all(toks):
    codes = _codes(toks)
    values, elliptic, fails, diags = _walk(codes, _ALL_LANES)
    return values, fails, diags, _features(codes, bool(elliptic >> _LENIENT_LANE & 1))


def _read_span(toks):
    """What scan keeps of a span: (outcome, error, eras, features)."""
    values, fails, diags, features = _walk_all(toks)
    consistent = tuple(era for era, v in zip(CHRONOLOGY, values) if v is not None)
    value = values[_LENIENT_LANE]
    if value is None:
        error = _ALL_LANES.error(_LENIENT_LANE, fails[_LENIENT_LANE])
        return None, error, consistent, features
    outcome = ParseOutcome(
        value=value,
        era_checked=None,
        features=features,
        diagnostics=tuple(
            text for mask, text in diags if mask >> _LENIENT_LANE & 1
        ),
        tokens=toks,
    )
    return outcome, None, consistent, features


def parse(tokens, era=None):
    """parse(tokens, era) read by the token-at-a-time walk."""
    toks = tuple(getattr(tokens, "tokens", tokens))
    if era is None or isinstance(era, str) and era.strip().lower() == "lenient":
        lanes = _LENIENT_LANES
    else:
        lanes = _profile_lanes(era_profile(era))
    if not toks:
        raise NumeralParseError(ParseErrorKind.EMPTY_INPUT, 0, "no tokens to parse")
    codes = _codes(toks)
    values, elliptic, fails, diags = _walk(codes, lanes)
    if values[0] is None:
        raise lanes.error(0, fails[0])
    return ParseOutcome(
        value=values[0],
        era_checked=lanes.era_checked,
        features=_features(codes, elliptic != 0),
        diagnostics=tuple(text for _, text in diags),
        tokens=toks,
    )


def classify(source):
    """classify(source) read by the token-at-a-time walk."""
    toks = _coerce_tokens(source)
    values, fails, _, features = _walk_all(toks)
    verdicts = []
    consistent = []
    for lane, era in enumerate(CHRONOLOGY):
        if values[lane] is None:
            error = _ALL_LANES.error(lane, fails[lane])
            verdicts.append(EraVerdict(era=era, error=error))
        else:
            verdicts.append(EraVerdict(era=era, value=values[lane]))
            consistent.append(era)
    consistent_t = tuple(consistent)
    return EraConsistencyReport(
        input_tokens=toks,
        verdicts=tuple(verdicts),
        features=features,
        consistent=consistent_t,
        notes=_notes(features, consistent_t),
    )

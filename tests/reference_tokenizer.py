"""Per-character reference tokenizer.

This is the tokenizer as it read before table lookups were mapped over the
whole text: one Python step per character (Han) or per syllable (pinyin),
with every syllable normalised before lookup. It builds its own tables from
the morpheme inventory and shares no code with hannum.parse, so the real
tokenizer can be checked against it token for token and error for error.
"""

import unicodedata

from hannum.core import LIANG, MORPHEMES, digit, pivot
from hannum.parse import NumeralParseError, ParseErrorKind, ScriptHint


def _strip_tone_marks(syllable: str) -> str:
    decomposed = unicodedata.normalize("NFD", syllable)
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))


HAN = {g: m for m in MORPHEMES for g in m.graphs}
PINYIN = {unicodedata.normalize("NFC", m.pinyin): m for m in MORPHEMES}
# Earlier rows win, so toneless "ling" reads as the ordinary gap word.
TONELESS = {_strip_tone_marks(m.pinyin): m for m in reversed(MORPHEMES)}


def _ideograph(ch: str) -> bool:
    """Whether ch is a CJK ideograph, by its Unicode name, or 〇."""
    name = unicodedata.name(ch, "")
    return (
        ch == "〇"
        or name.startswith("CJK UNIFIED IDEOGRAPH")
        or name.startswith("CJK COMPATIBILITY IDEOGRAPH")
    )


def reference_tokenize(text: str, script_hint: ScriptHint, toneless: bool):
    """Returns (tokens, used_pinyin), or raises NumeralParseError.

    AUTO reads Han where any character is a graph, or where the first
    character that is not whitespace is a CJK ideograph or 〇."""
    if script_hint is ScriptHint.AUTO:
        lead = text.lstrip()[:1]
        han = any(ch in HAN for ch in text) or bool(lead) and _ideograph(lead)
    else:
        han = script_hint is ScriptHint.HAN

    tokens = []
    if han:
        for offset, ch in enumerate(text):
            if ch.isspace():
                continue
            m = HAN.get(ch)
            if m is None:
                raise NumeralParseError(
                    ParseErrorKind.UNKNOWN_CHARACTER,
                    offset,
                    f"character {ch!r} is not in the numeral inventory",
                )
            tokens.append(m)
    else:
        i, n = 0, len(text)
        while i < n:
            if text[i].isspace():
                i += 1
                continue
            start = i
            while i < n and not text[i].isspace():
                i += 1
            syllable = unicodedata.normalize("NFC", text[start:i]).lower()
            m = PINYIN.get(syllable)
            if m is None and toneless:
                bare = _strip_tone_marks(syllable)
                if bare == "yi":
                    if tokens and tokens[-1].code <= LIANG.code:
                        m = pivot(8)
                    else:
                        m = digit(1)
                else:
                    m = TONELESS.get(bare)
            if m is None:
                raise NumeralParseError(
                    ParseErrorKind.UNKNOWN_CHARACTER,
                    start,
                    f"syllable {text[start:i]!r} is not a numeral morpheme",
                )
            tokens.append(m)
    if not tokens:
        raise NumeralParseError(
            ParseErrorKind.EMPTY_INPUT, 0, "no numeral content in input"
        )
    return tuple(tokens), not han

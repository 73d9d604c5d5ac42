"""Shredder: arbitrary nested JSON → flat (keypath, arraypath, value)
entries — the analogue of the reference's streaming-JSON Shredder
(/root/reference/src/json_shred.rs:485-576) over an already-parsed Python
object (Ray batches deliver whole documents; there is no streaming parser
to integrate with, and per-doc payloads are small).

Key shapes follow ``src/key_builder.rs``:

- a *keypath* (``kp``) is the concatenation of escaped object-key segments
  (``.key``) and bare array markers (``$``): ``{"a": {"b": [1]}}`` puts its
  number under kp ``.a.b$``  (src/key_builder.rs:384-409).
- the *arraypath* (``ap``) is the tuple of array indices, one per ``$``:
  the number above at index 0 has ap ``(0,)``.
- the *value key* (``vkey``) is the kp with the array indices filled in
  after each ``$`` — ``.a.b$0`` — the reference's ``kp_value_no_seq``
  (src/key_builder.rs:251-262).  Within one document vkeys are unique and
  their lexicographic order is the reference's RocksDB ``V`` iteration
  order.

Object keys escape the delimiter characters ``\\ $ . ! #`` with a
backslash (src/key_builder.rs:385-397).

Value codes (src/json_shred.rs:540-566): ``s`` string, ``f`` number (f64),
``T``/``F`` bool, ``N`` null, ``o`` empty object, ``a`` empty array,
``r`` GeoJSON bounding box (value = (west, east, south, north), the
reference's encoded order, src/json_shred.rs:505-513).

GeoJSON detection replicates the reference's event-order quirks
(src/json_shred.rs:55-61, 205-216, 485-545): a ``maybe_geometry``
counter bumped by an object-keyed ``type`` with a GeoJSON type value and
by an object-keyed ``coordinates`` array, checked (== 2) and RESET at
every object end; every number seen while the counter is positive feeds
the bbox with an x/y toggle that is never reset; and the east bound
reads the just-updated west (``bounding_box[0].max(value)``) — i.e.
east = max(west, LAST x) — a reference bug preserved for parity.
"""

from __future__ import annotations

from dataclasses import dataclass

_ESCAPE = set("\\$.!#")


from functools import lru_cache


@lru_cache(maxsize=65536)
def escape_key(key: str) -> str:
    """``push_object_key`` escaping (src/key_builder.rs:384-397).
    Cached: object keys repeat across every document of a corpus."""
    out = ["."]
    for c in key:
        if c in _ESCAPE:
            out.append("\\")
        out.append(c)
    return "".join(out)


def unescape_segment(seg: str) -> str:
    """Inverse of :func:`escape_key` for one ``.key`` segment."""
    assert seg.startswith(".")
    out = []
    i = 1
    while i < len(seg):
        if seg[i] == "\\":
            i += 1
        out.append(seg[i])
        i += 1
    return "".join(out)


def parse_kp(kp: str) -> list[str]:
    """Split a keypath into its segments (escaped ``.key`` strings and
    ``$`` markers) — ``parse_first_kp_value_segment`` iterated
    (src/key_builder.rs:328-382)."""
    segs = []
    i = 0
    n = len(kp)
    while i < n:
        c = kp[i]
        if c == "$":
            j = i + 1
            while j < n and kp[j].isdigit():
                j += 1
            segs.append(kp[i:j])
            i = j
        elif c == ".":
            j = i + 1
            while j < n:
                if kp[j] == "\\":
                    j += 2
                    continue
                if kp[j] in ".$":
                    break
                j += 1
            segs.append(kp[i:j])
            i = j
        else:
            raise ValueError(f"bad keypath segment at {i} in {kp!r}")
    return segs


def fmt_ap(ap: tuple[int, ...]) -> str:
    """Reference arraypath suffix: empty → ``,``; else ``,i,j``
    (``add_arraypath``, src/key_builder.rs:303-312)."""
    if not ap:
        return ","
    return "".join(f",{i}" for i in ap)


def fill_vkey(kp: str, ap: tuple[int, ...]) -> str:
    """kp with array indices written after each ``$``
    (``kp_value_no_seq``, src/key_builder.rs:251-262)."""
    if not ap:
        return kp
    out = []
    i = 0
    for seg in parse_kp(kp):
        out.append(seg)
        if seg == "$":
            out.append(str(ap[i]))
            i += 1
    return "".join(out)


_GEOJSON_TYPES = frozenset([
    "Point", "MultiPoint", "LineString", "MultiLineString",
    "Polygon", "MultiPolygon",
])  # src/json_shred.rs:30-37


class ShredError(ValueError):
    pass


@dataclass(slots=True)
class Entry:
    kp: str                 # keypath with bare $ markers
    ap: tuple[int, ...]     # one index per $
    code: str               # s f T F N o a
    value: object           # str for s, float for f, None otherwise

    @property
    def vkey(self) -> str:
        return fill_vkey(self.kp, self.ap)


@dataclass
class ShreddedDoc:
    doc_id: str | None      # the _id (from the doc, or supplied)
    entries: list[Entry]    # vkey-sorted (the reference's BTreeMap order)

    def text_entries(self) -> list[Entry]:
        return [e for e in self.entries if e.code == "s"]


def shred(doc: dict, docid: str | None = None,
          sort: bool = True) -> ShreddedDoc:
    """Shred one JSON document (root must be an object).

    ``_id`` handling mirrors the reference (src/json_shred.rs:233-246,
    477-483): a root-level ``_id`` must be a string and is indexed under
    keypath ``._id``; when absent, ``docid`` is used (the reference
    generates a UUID — we require a deterministic id from the caller).
    Nested ``_id`` keys are ordinary fields.

    ``sort=False`` skips the vkey (BTreeMap-order) sort — the index build
    doesn't depend on entry order and the per-entry vkey construction is
    a measurable cost; the key-layout surfaces (w_keys/v_keys) sort
    themselves."""
    if not isinstance(doc, dict):
        raise ShredError("Expected JSON object document")
    entries: list[Entry] = []

    def emit(kp_segs: list[str], ap: list[int], code: str, value=None):
        entries.append(Entry("".join(kp_segs), tuple(ap), code, value))

    # GeoJSON geometry detection state (see module docstring)
    _MAX = float("inf")
    geo = {"count": 0, "bbox": [_MAX, _MAX, -_MAX, -_MAX], "first": True}

    def _calc_mbb(value: float):
        # src/json_shred.rs:205-216 — incl. the east-reads-west quirk
        bb = geo["bbox"]
        if geo["first"]:
            bb[0] = min(bb[0], value)
            bb[2] = max(bb[0], value)
        else:
            bb[1] = min(bb[1], value)
            bb[3] = max(bb[3], value)
        geo["first"] = not geo["first"]

    def walk(v, kp_segs: list[str], ap: list[int], is_root: bool,
             okey: str | None = None):
        if isinstance(v, dict):
            for k, child in v.items():
                if is_root and k == "_id":
                    continue  # handled by the caller
                walk(child, kp_segs + [escape_key(k)], ap, False, okey=k)
            # ObjectEnd (src/json_shred.rs:497-520)
            if not v and not is_root:
                # empty-object marker; never for the root (it always
                # gets an _id entry)
                emit(kp_segs, ap, "o")
            if geo["count"] == 2:
                bb = geo["bbox"]
                emit(kp_segs, ap, "r", (bb[0], bb[2], bb[1], bb[3]))
            geo["count"] = 0
            geo["bbox"] = [_MAX, _MAX, -_MAX, -_MAX]
        elif isinstance(v, list):
            if okey == "coordinates":
                geo["count"] += 1  # src/json_shred.rs:521-525
            if not v:
                emit(kp_segs, ap, "a")  # src/json_shred.rs:529-537
                return
            for i, el in enumerate(v):
                walk(el, kp_segs + ["$"], ap + [i], False)
        elif isinstance(v, str):
            if okey == "type" and v in _GEOJSON_TYPES:
                geo["count"] += 1  # src/json_shred.rs:247-254
            emit(kp_segs, ap, "s", v)
        elif isinstance(v, bool):
            emit(kp_segs, ap, "T" if v else "F")
        elif v is None:
            emit(kp_segs, ap, "N")
        elif isinstance(v, (int, float)):
            if geo["count"] > 0:
                _calc_mbb(float(v))
            emit(kp_segs, ap, "f", float(v))
        else:
            raise ShredError(f"unshreddable value type {type(v).__name__}")

    # a PRESENT root _id of any non-string type — including null —
    # errors (src/json_shred.rs:237-240 checks the value code, and 'N'
    # is not 's'); only an ABSENT _id falls back to the supplied docid
    if "_id" in doc and not isinstance(doc["_id"], str):
        raise ShredError(
            "Expected string for `_id` field, got another type")
    the_id = doc.get("_id")
    if the_id is None:
        the_id = docid
    walk(doc, [], [], True)
    if the_id is not None:
        entries.append(Entry("._id", (), "s", the_id))
    if sort:
        entries.sort(key=lambda e: e.vkey)
    return ShreddedDoc(the_id, entries)


# ------------------------------------------------- reference key layouts
# Debug/conformance surface: format a shredded doc as the reference's W
# (word) and V (value) keys, used to port the layout unit tests from
# src/json_shred.rs:579-741 verbatim.

def w_keys(sd: ShreddedDoc, seq: int) -> list[tuple[str, list[int]]]:
    """``W<kp>!<stem>#<seq><arraypath>`` → word positions, sorted by key
    (rocks iteration order), replicating ``add_stemmed_entries``
    (src/json_shred.rs:148-203)."""
    from ..analysis.tokenizer import tokenize

    out: dict[str, list[int]] = {}
    for e in sd.text_entries():
        per_stem: dict[str, list[int]] = {}
        for pos, stem in tokenize(e.value):
            per_stem.setdefault(stem, []).append(pos)
        for stem, positions in per_stem.items():
            key = f"W{e.kp}!{stem}#{seq}{fmt_ap(e.ap)}"
            out[key] = positions
    return sorted(out.items())


def v_keys(sd: ShreddedDoc, seq: int) -> list[tuple[str, object]]:
    """``V<seq>#<vkey>`` → decoded JSON value, sorted by key
    (``kp_value_key``, src/key_builder.rs:234-248)."""
    def val(e: Entry):
        if e.code == "r":
            return list(e.value)  # (west, east, south, north)
        return {"s": e.value, "f": e.value, "T": True, "F": False,
                "N": None, "o": {}, "a": []}[e.code]

    return sorted((f"V{seq}#{e.vkey}", val(e)) for e in sd.entries)

"""Offline integrity checking and repair for SB-tree page files.

``repro fsck`` is to a page file what ``fsck`` is to a filesystem: it
never needs the tree to be openable, it trusts nothing but the bytes on
disk, and it reports every inconsistency it can find:

* **header** -- magic, version, geometry sanity, header page count vs
  actual file size;
* **checksums** -- a full CRC32 sweep over every data page;
* **free list** -- cycles, out-of-range ids, corrupt link pages,
  pages that are simultaneously free and reachable;
* **reachability** -- walks the tree from the root pointer, decoding
  nodes with the file's own codec: dangling child pointers, pages
  referenced twice, and *orphans* (allocated to neither the tree nor
  the free list -- leaked space);
* **write-ahead log** -- the WAL beside the file is read with the
  pager's own reader (:func:`repro.storage.pager.scan_wal`): cold
  (nothing committed to replay), pending (committed transactions not
  yet checkpointed -- the audit then checks the file *as the next open
  will recover it*, those pages laid over the data file's), a torn tail,
  or unusable; a leftover rollback journal of an earlier release is an
  error, because the pager refuses to open the file beside it.

With ``repair=True`` the audit is followed by an offline repair pass:
a WAL is first settled through the pager's normal recovery (an open
and a close; an unusable WAL or a rollback journal stops the
repair), corrupt pages are
*quarantined* (recorded under the header meta key ``quarantine`` and
excluded from allocation), the free list is
rebuilt from scratch out of every non-reachable non-corrupt page, and
the header's live-node count and page count are made consistent with
the file again.  Corrupt pages that are *reachable from the root* are
reported as unrepairable: their payload is gone, so the tree itself
needs rebuilding (``repro build``) -- fsck never invents data.

``repro fsck`` also audits dynamic-view catalog checkpoints
(``dynamic.json``): :func:`fsck_dynamic` reports the findings of the
audit a catalog load runs, which lives with the format in
:mod:`repro.warehouse.checkpoint`.
"""

from __future__ import annotations

import os
import warnings
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

from .codec import NodeCodec
from .pager import (
    _CRC, _FRAME_HEAD, _FREE_LINK, _HEADER, _MAGIC, _VERSION, NO_PAGE, Pager,
    _replay, scan_wal,
)
from .. import obs
from ..core.values import spec_for

__all__ = ["Finding", "FsckReport", "fsck", "fsck_dynamic"]


@dataclass
class Finding:
    """One fsck observation: an error, a warning, or a note."""

    severity: str  # "error" | "warning" | "info"
    code: str  # machine-readable class, e.g. "bad-checksum"
    message: str
    page_id: Optional[int] = None

    def __str__(self) -> str:
        where = f" (page {self.page_id})" if self.page_id is not None else ""
        return f"{self.severity}: [{self.code}]{where} {self.message}"

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "severity": self.severity,
            "code": self.code,
            "message": self.message,
        }
        if self.page_id is not None:
            record["page_id"] = self.page_id
        return record


@dataclass
class FsckReport:
    """The full outcome of one fsck run."""

    path: str
    findings: List[Finding] = field(default_factory=list)
    page_size: int = 0
    page_count: int = 0
    live_nodes: int = 0
    reachable: int = 0
    free_pages: int = 0
    orphans: List[int] = field(default_factory=list)
    corrupt: List[int] = field(default_factory=list)
    quarantined: List[int] = field(default_factory=list)
    #: Committed transactions the WAL holds beyond the data file.
    wal_pending: int = 0
    repaired: bool = False
    unrepairable: List[int] = field(default_factory=list)
    #: With ``repair=True``: the audit of the file as it was *before*
    #: repair; the main report then reflects the repaired file.
    pre_repair: Optional["FsckReport"] = None

    @property
    def ok(self) -> bool:
        return not any(f.severity == "error" for f in self.findings)

    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    def add(
        self,
        severity: str,
        code: str,
        message: str,
        page_id: Optional[int] = None,
    ) -> None:
        self.findings.append(Finding(severity, code, message, page_id))

    def has(self, code: str) -> bool:
        return any(f.code == code for f in self.findings)

    def to_dict(self) -> Dict[str, Any]:
        record = {
            "path": self.path,
            "ok": self.ok,
            "page_size": self.page_size,
            "page_count": self.page_count,
            "live_nodes": self.live_nodes,
            "reachable": self.reachable,
            "free_pages": self.free_pages,
            "orphans": self.orphans,
            "corrupt": self.corrupt,
            "quarantined": self.quarantined,
            "wal_pending": self.wal_pending,
            "repaired": self.repaired,
            "unrepairable": self.unrepairable,
            "findings": [f.to_dict() for f in self.findings],
        }
        if self.pre_repair is not None:
            record["pre_repair"] = self.pre_repair.to_dict()
        return record

    def render(self) -> str:
        lines = []
        if self.pre_repair is not None:
            lines.append("--- before repair ---")
            lines.append(self.pre_repair.render())
            lines.append("--- after repair ---")
        lines += [
            f"file        : {self.path}",
            f"page size   : {self.page_size}",
            f"pages       : {self.page_count}",
            f"reachable   : {self.reachable}  free: {self.free_pages}  "
            f"orphans: {len(self.orphans)}  corrupt: {len(self.corrupt)}",
        ]
        if self.quarantined:
            lines.append(f"quarantined : {sorted(self.quarantined)}")
        for finding in self.findings:
            lines.append(str(finding))
        if self.repaired:
            lines.append("repair      : applied")
        if self.unrepairable:
            lines.append(
                f"unrepairable: pages {sorted(self.unrepairable)} are "
                "reachable from the root and corrupt; rebuild the index "
                "(repro build) to recover"
            )
        lines.append(f"status      : {'clean' if self.ok else 'NOT clean'}")
        return "\n".join(lines)


class _FileImage:
    """A raw, read-only parse of a page file -- with *wal*, the committed
    page images a WAL holds, laid over it as recovery will copy them."""

    def __init__(self, path: str, wal: Optional[Dict[int, bytes]] = None) -> None:
        self.path = path
        with open(path, "rb") as handle:
            data = bytearray(handle.read())
        for page_id, image in sorted((wal or {}).items()):
            offset = page_id * len(image)
            data.extend(bytes(max(0, offset - len(data))))
            data[offset:offset + len(image)] = image
        self.data = bytes(data)
        self.file_size = len(self.data)
        self.header_ok = False
        self.page_size = 0
        self.page_count = 0
        self.free_head = NO_PAGE
        self.root = NO_PAGE
        self.live_nodes = 0
        self.meta: Dict[str, str] = {}

    def parse_header(self, report: FsckReport) -> bool:
        if self.file_size < _HEADER.size:
            report.add(
                "error", "bad-header",
                f"file is {self.file_size} bytes, smaller than the "
                f"{_HEADER.size}-byte header", 0,
            )
            return False
        (magic, version, page_size, page_count, free_head, root, live,
         meta_len) = _HEADER.unpack_from(self.data, 0)
        if magic != _MAGIC:
            report.add("error", "bad-header", f"bad magic {magic!r}", 0)
            return False
        if version != _VERSION:
            report.add(
                "error", "bad-header", f"unsupported format version {version}", 0
            )
            return False
        if page_size < 512:
            report.add(
                "error", "bad-header", f"implausible page size {page_size}", 0
            )
            return False
        self.page_size = page_size
        self.page_count = page_count
        self.free_head = free_head
        self.root = root
        self.live_nodes = live
        report.page_size = page_size
        report.page_count = page_count
        report.live_nodes = live
        if _HEADER.size + meta_len > page_size:
            report.add(
                "error", "bad-header",
                f"metadata length {meta_len} overflows the header page", 0,
            )
            return False
        try:
            meta_raw = self.data[_HEADER.size:_HEADER.size + meta_len].decode(
                "utf-8"
            )
        except UnicodeDecodeError:
            report.add("error", "bad-header", "metadata is not valid UTF-8", 0)
            return False
        for line in meta_raw.splitlines():
            key, _, value = line.partition("=")
            self.meta[key] = value
        expected = page_count * page_size
        if self.file_size < expected:
            report.add(
                "error", "truncated-file",
                f"header claims {page_count} pages "
                f"({expected} bytes) but the file holds {self.file_size}",
            )
            return False
        if self.file_size > expected:
            trailing = self.file_size - expected
            report.add(
                "warning", "trailing-bytes",
                f"{trailing} bytes beyond the last header-accounted page "
                "(an uncommitted extension or a partial write)",
            )
        if root != NO_PAGE and not 1 <= root < page_count:
            report.add(
                "error", "bad-root", f"root pointer {root} is out of range"
            )
        self.header_ok = True
        return True

    def page(self, page_id: int) -> bytes:
        offset = page_id * self.page_size
        return self.data[offset:offset + self.page_size]

    def page_payload_ok(self, page_id: int) -> bool:
        raw = self.page(page_id)
        if len(raw) < self.page_size:
            return False
        payload, crc_raw = raw[:-_CRC.size], raw[-_CRC.size:]
        (expected,) = _CRC.unpack(crc_raw)
        return zlib.crc32(payload) == expected

    def payload(self, page_id: int) -> bytes:
        return self.page(page_id)[:-_CRC.size]


def _audit_checksums(image: _FileImage, report: FsckReport) -> Set[int]:
    quarantined = _quarantined_from_meta(image)
    corrupt: Set[int] = set()
    for page_id in range(1, image.page_count):
        if not image.page_payload_ok(page_id):
            if page_id in quarantined:
                # Known-bad and fenced off by a previous repair: not a
                # fresh error, the page can never be reallocated.
                report.add(
                    "info", "quarantined-page",
                    "page fails its CRC32 but is quarantined", page_id,
                )
                continue
            corrupt.add(page_id)
            report.add(
                "error", "bad-checksum",
                "page payload fails its CRC32", page_id,
            )
    report.corrupt = sorted(corrupt)
    return corrupt


def _audit_free_list(
    image: _FileImage, report: FsckReport, corrupt: Set[int]
) -> Set[int]:
    free: Set[int] = set()
    current = image.free_head
    while current != NO_PAGE:
        if not 1 <= current < image.page_count:
            report.add(
                "error", "free-list-range",
                f"free-list link points at page {current}, outside "
                f"1..{image.page_count - 1}",
            )
            break
        if current in free:
            report.add(
                "error", "free-list-cycle",
                f"free list revisits page {current}: the chain is cyclic "
                "and would hand the same page to two allocations", current,
            )
            break
        if current in corrupt:
            report.add(
                "error", "free-list-corrupt",
                "free-list page fails its checksum; the chain cannot be "
                "followed past it", current,
            )
            break
        free.add(current)
        (current,) = _FREE_LINK.unpack_from(image.payload(current), 0)
    report.free_pages = len(free)
    return free


def _audit_reachability(
    image: _FileImage,
    report: FsckReport,
    corrupt: Set[int],
    free: Set[int],
) -> Set[int]:
    reachable: Set[int] = set()
    codec_kind = image.meta.get("codec_kind")
    if image.root == NO_PAGE:
        return reachable
    if not 1 <= image.root < image.page_count:
        return reachable  # bad-root already reported
    if codec_kind is None:
        report.add(
            "warning", "no-codec",
            "header metadata lacks codec_kind; node pages cannot be "
            "decoded, reachability analysis skipped",
        )
        return reachable
    codec = NodeCodec(spec_for(codec_kind), image.page_size - _CRC.size)
    stack = [image.root]
    while stack:
        page_id = stack.pop()
        if page_id in reachable:
            report.add(
                "error", "multiply-referenced",
                "page is referenced by more than one parent", page_id,
            )
            continue
        if page_id in corrupt:
            # Reachable-and-corrupt: the tree has lost data.
            reachable.add(page_id)
            continue
        if page_id in free:
            report.add(
                "error", "reachable-free",
                "page is both on the free list and reachable from the "
                "root", page_id,
            )
        reachable.add(page_id)
        try:
            node = codec.decode(image.payload(page_id), page_id)
        except Exception:  # noqa: BLE001 - decode garbage defensively
            report.add(
                "error", "undecodable-node",
                "page passes its checksum but does not decode as a node",
                page_id,
            )
            continue
        if node.is_leaf:
            continue
        for child in node.children:
            if not 1 <= child < image.page_count:
                report.add(
                    "error", "dangling-child",
                    f"interior node references page {child}, outside "
                    f"1..{image.page_count - 1}", page_id,
                )
                continue
            stack.append(child)
    report.reachable = len(reachable)
    if image.live_nodes != len(reachable):
        report.add(
            "warning", "live-count",
            f"header live-node count {image.live_nodes} != {len(reachable)} "
            "reachable pages",
        )
    return reachable


def _quarantined_from_meta(image: _FileImage) -> Set[int]:
    raw = image.meta.get("quarantine", "")
    out: Set[int] = set()
    for part in raw.split(","):
        part = part.strip()
        if part.isdigit():
            out.add(int(part))
    return out


def _audit_orphans(
    image: _FileImage,
    report: FsckReport,
    corrupt: Set[int],
    free: Set[int],
    reachable: Set[int],
) -> List[int]:
    quarantined = _quarantined_from_meta(image)
    report.quarantined = sorted(quarantined)
    orphans = [
        page_id
        for page_id in range(1, image.page_count)
        if page_id not in reachable
        and page_id not in free
        and page_id not in corrupt
        and page_id not in quarantined
    ]
    for page_id in orphans:
        report.add(
            "error", "orphan-page",
            "page is neither reachable from the root nor on the free "
            "list (leaked space)", page_id,
        )
    report.orphans = orphans
    return orphans


def _inspect_wal(path: str, report: FsckReport) -> Optional[Dict[int, bytes]]:
    """Report what the pager's own reader makes of the files beside
    *path*; returns the page images replay would copy from the WAL
    (``None``: neither a WAL nor a rollback journal is there)."""
    legacy, wal_path = path + "-journal", path + "-wal"
    if os.path.exists(legacy):
        report.add(
            "error", "legacy-journal",
            f"{legacy!r} is a rollback journal of an earlier release: the "
            "pager refuses to open the file beside it until that release "
            "has rolled it back",
        )
    if not os.path.exists(wal_path):
        return {} if os.path.exists(legacy) else None
    with open(wal_path, "rb") as handle:
        header, *frames = scan_wal(handle)
        if header.verdict == "unusable":
            report.add(
                "error", "bad-wal",
                f"{header.detail}: its frames cannot be replayed (a strict "
                "open refuses it, any other warns and discards them)",
            )
            return {}
        index, report.wal_pending = _replay(frames)
        images = {}
        for page_id, offset in index.items():
            handle.seek(offset + _FRAME_HEAD.size)
            images[page_id] = handle.read(header.page_size)
    if frames and frames[-1].status in ("torn", "corrupt"):
        report.add(
            "info", "torn-wal-tail",
            f"the WAL frame at byte {frames[-1].offset} is "
            f"{frames[-1].status} (a write no commit covered, torn by a "
            "crash -- or, corrupt, bit rot); replay stops before it",
        )
    if report.wal_pending:
        report.add(
            "info", "wal-pending",
            f"{report.wal_pending} committed transactions ({len(images)} "
            "pages) are not yet checkpointed -- the normal state after a "
            "kill; opening the file replays them, and this audit reads "
            "the file as that replay leaves it",
        )
    else:
        report.add(
            "info", "wal-cold",
            f"WAL {wal_path!r} holds no committed transaction to replay "
            "(normal beside a running or killed server; a clean close "
            "removes it)",
        )
    return images


# ----------------------------------------------------------------------
# Repair
# ----------------------------------------------------------------------
def _write_free_page(handle, page_id: int, link: int, page_size: int) -> None:
    payload = _FREE_LINK.pack(link).ljust(page_size - _CRC.size, b"\x00")
    handle.seek(page_id * page_size)
    handle.write(payload + _CRC.pack(zlib.crc32(payload)))


def _repair(path: str, report: FsckReport, wal: Optional[Dict[int, bytes]]) -> None:
    """Offline repair: settle the WAL, quarantine, rebuild the free list."""
    if wal is not None:
        # Settle the WAL through the pager's own recovery; fsck must not
        # repair underneath frames a later open would replay over the
        # repairs.  An unusable WAL or a rollback journal is refused
        # (strict) and stays on disk: fsck never discards what it
        # cannot read.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                Pager(path, strict=True).close()
            except Exception as exc:  # noqa: BLE001
                report.add(
                    "error", "unrepairable-journal",
                    f"WAL recovery failed during repair: {exc!r}",
                )
                return
        report.add(
            "info", "wal-settled",
            "the WAL was replayed, checkpointed and removed before repair"
            if wal else "the cold WAL was removed before repair",
        )

    image = _FileImage(path)
    if not image.parse_header(FsckReport(path)):
        report.add(
            "error", "unrepairable-header",
            "the header page itself is damaged; fsck cannot rebuild it "
            "(rebuild the index with repro build)",
        )
        return

    sub = FsckReport(path)
    corrupt = _audit_checksums(image, sub)
    free = _audit_free_list(image, sub, corrupt)
    reachable = _audit_reachability(image, sub, corrupt, free)

    usable_pages = image.file_size // image.page_size
    reachable_corrupt = sorted(set(corrupt) & reachable)
    quarantine = sorted(
        (_quarantined_from_meta(image) | corrupt) - reachable
    )
    free_candidates = [
        page_id
        for page_id in range(1, usable_pages)
        if page_id not in reachable and page_id not in quarantine
    ]

    with open(path, "r+b") as handle:
        # Chain every non-reachable, non-quarantined page into a fresh
        # free list (head -> ... -> NO_PAGE), rewriting each link page
        # with a valid checksum.
        link = NO_PAGE
        for page_id in reversed(free_candidates):
            _write_free_page(handle, page_id, link, image.page_size)
            link = page_id
        meta = dict(image.meta)
        if quarantine:
            meta["quarantine"] = ",".join(str(p) for p in quarantine)
        else:
            meta.pop("quarantine", None)
        meta_blob = "\n".join(
            f"{k}={v}" for k, v in sorted(meta.items())
        ).encode("utf-8")
        header = _HEADER.pack(
            _MAGIC,
            _VERSION,
            image.page_size,
            usable_pages,
            link,
            image.root,
            len(reachable),
            len(meta_blob),
        )
        handle.seek(0)
        handle.write((header + meta_blob).ljust(image.page_size, b"\x00"))
        handle.truncate(usable_pages * image.page_size)
        handle.flush()
        os.fsync(handle.fileno())

    report.repaired = True
    report.unrepairable = reachable_corrupt
    report.add(
        "info", "repaired",
        f"free list rebuilt with {len(free_candidates)} pages; "
        f"{len(quarantine)} corrupt pages quarantined; live-node count "
        f"set to {len(reachable)}",
    )
    if reachable_corrupt:
        report.add(
            "error", "unrepairable-node",
            f"pages {reachable_corrupt} are reachable from the root and "
            "corrupt: the tree has lost data and must be rebuilt "
            "(repro build)",
        )


def fsck(path: str, *, repair: bool = False) -> FsckReport:
    """Audit (and optionally repair) a page file, fully offline.

    Never opens the file through the pager for the audit itself, so a
    leftover WAL is inspected rather than replayed and even files the
    pager would refuse to open produce a report instead of an
    exception.

    When :mod:`repro.obs` is enabled, each run also bumps the
    ``fsck.*`` registry counters (runs, pages scanned, errors found,
    pages quarantined), so long-running audit loops are observable like
    every other subsystem.
    """
    report = _fsck(path, repair=repair)
    obs.count("fsck.runs")
    obs.count("fsck.pages_scanned", report.page_count)
    obs.count("fsck.errors_found", len(report.errors()))
    obs.count("fsck.pages_quarantined", len(report.quarantined))
    if report.repaired:
        obs.count("fsck.repairs")
    return report


def _fsck(path: str, *, repair: bool = False) -> FsckReport:
    report = FsckReport(path)
    if not os.path.exists(path):
        report.add("error", "missing-file", f"no such page file: {path!r}")
        return report

    wal = _inspect_wal(path, report)
    image = _FileImage(path, wal)
    if image.parse_header(report):
        corrupt = _audit_checksums(image, report)
        free = _audit_free_list(image, report, corrupt)
        reachable = _audit_reachability(image, report, corrupt, free)
        _audit_orphans(image, report, corrupt, free, reachable)

    if repair and (not report.ok or wal is not None):
        actions = FsckReport(path)
        _repair(path, actions, wal)
        if actions.repaired:
            # Re-audit so the main report reflects the repaired file
            # (quarantined pages are fenced off, not fresh errors).
            post = _fsck(path, repair=False)
            post.repaired = True
            post.unrepairable = actions.unrepairable
            post.findings = actions.findings + post.findings
            post.pre_repair = report
            return post
        report.findings.extend(actions.findings)
    return report


# ----------------------------------------------------------------------
# Dynamic-view catalog checkpoints (dynamic.json)
# ----------------------------------------------------------------------
def fsck_dynamic(path: str) -> FsckReport:
    """Audit a :class:`~repro.warehouse.dynamic.DynamicCatalog` checkpoint.

    Fully offline, like :func:`fsck`: the findings are those of the one
    audit a catalog load runs (:func:`repro.warehouse.checkpoint.audit`),
    so a checkpoint is clean exactly when a strict load takes it, and
    when it is not the report says whether ``.prev`` passes the same
    audit -- the fallback a non-strict load takes.
    """
    from ..warehouse.checkpoint import audit  # storage does not import warehouse

    report = audit(path)
    obs.count("fsck.runs")
    obs.count("fsck.errors_found", len(report.errors()))
    return report

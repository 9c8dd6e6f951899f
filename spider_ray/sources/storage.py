"""Table storage: Lance-style image+caption tables and epoch checkpoints.

The target store is Lance (north rule); this container has no ``lance``
package, so the implementation is **parquet-backed with an identical logical
layout** and a gated Lance fast path: if ``lance``/``pylance`` is importable
the same tables are written via ``ray.data.Dataset.write_lance`` /
``lance.write_dataset`` instead. Layout is resumable: one directory per
epoch / partition plus a JSON manifest of completed epochs — a restarted
run skips finished partitions (SURVEY.md §4 checkpoint/resume).
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile

import pyarrow as pa
import pyarrow.parquet as pq

try:  # gated Lance support — not present in this container
    import lance  # type: ignore

    HAVE_LANCE = True
except ImportError:
    lance = None
    HAVE_LANCE = False


def write_table(table: pa.Table, directory: str, filename: str = "part-0.parquet") -> str:
    """Atomic write: temp file + rename, so partial writes never count."""
    os.makedirs(directory, exist_ok=True)
    if HAVE_LANCE:  # pragma: no cover - not available here
        uri = os.path.join(directory, filename.replace(".parquet", ".lance"))
        lance.write_dataset(table, uri, mode="overwrite")
        return uri
    path = os.path.join(directory, filename)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    os.close(fd)
    try:
        pq.write_table(table, tmp, compression="zstd")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def to_wire(table: pa.Table) -> pa.Buffer:
    """``table`` as one Arrow IPC stream: the form in which the crawl's
    tables cross Ray (chunks, chunk results, write-task payloads). Ray's
    own ``pa.Table`` pickler imports ``ray.air`` in every process that
    uses it (~0.7 s in a fresh worker) and costs several times more per
    table. IPC keeps the exact schema, and for a slice it writes only the
    slice's rows."""
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, table.schema) as writer:
        writer.write_table(table)
    return sink.getvalue()


def from_wire(buf: pa.Buffer) -> pa.Table:
    """The table ``to_wire`` encoded (zero-copy over ``buf``)."""
    return pa.ipc.open_stream(buf).read_all()


def _part_paths(directory: str) -> list[str]:
    """A table directory's part files, in name order (Lance parts when the
    gated Lance path wrote them, else parquet)."""
    names = sorted(os.listdir(directory))
    if HAVE_LANCE:
        lance_parts = [os.path.join(directory, f) for f in names if f.endswith(".lance")]
        if lance_parts:
            return lance_parts
    return [os.path.join(directory, f) for f in names if f.endswith(".parquet")]


def _read_part(path: str, columns: list[str] | None = None) -> pa.Table:
    if path.endswith(".lance"):
        table = lance.dataset(path).to_table()
        return table.select(columns) if columns else table
    return pq.read_table(path, columns=columns)


def read_table(path_or_dir: str, columns: list[str] | None = None) -> pa.Table:
    """One table from a part file or a directory of parts; ``columns``
    projects the read (only those columns are decoded)."""
    if os.path.isdir(path_or_dir):
        return pa.concat_tables(
            [_read_part(p, columns) for p in _part_paths(path_or_dir)]
        )
    return _read_part(path_or_dir, columns)


WRITE_TASK_NUM_CPUS = 0.25

try:
    import ray as _ray

    @_ray.remote(num_cpus=WRITE_TASK_NUM_CPUS)
    def _write_task(tables: dict[str, pa.Buffer]) -> list[str]:
        """Write each ``directory → to_wire(table)`` entry, replacing the
        directory."""
        paths = []
        for directory, data in tables.items():
            if os.path.exists(directory):
                shutil.rmtree(directory)
            paths.append(write_table(from_wire(data), directory))
        return paths

except ImportError:  # pragma: no cover
    _write_task = None


class EpochStore:
    """Checkpoint layout for a crawl run.

    ``root/manifest.json`` records completed epochs and, per completed
    epoch, the per-shard ``(dedup_checks, dedup_hits)`` counters;
    per-epoch directories hold frontier / pages / images / documents /
    lineage / order tables, plus a ``dropped`` table (url_hash of the
    robots-filtered rows) for each epoch that dropped any. A frontier that
    spilled to run files also has ``frontier_runs/epoch=E``: a hardlink of
    each run file and their cursors (``crawl.RunSet.link_files``). No
    seen-set snapshot is stored: a resume rebuilds the shards from the
    url_hash of order, dropped and frontier (``run_crawl``). Epoch writes are
    idempotent (directory replaced wholesale), so a crash mid-epoch re-runs
    that epoch from the previous checkpoint.
    """

    TABLES = ("frontier", "pages", "images", "documents", "lineage", "order", "dropped")

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    # -- manifest ---------------------------------------------------------
    def manifest(self) -> dict:
        path = os.path.join(self.root, "manifest.json")
        if not os.path.exists(path):
            return {"completed_epochs": [], "config": None, "done": False}
        with open(path) as f:
            return json.load(f)

    def _write_manifest(self, manifest: dict) -> None:
        path = os.path.join(self.root, "manifest.json")
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(manifest, f)
        os.replace(tmp, path)

    def last_epoch(self) -> int | None:
        done = self.manifest()["completed_epochs"]
        return max(done) if done else None

    def mark_epoch_complete(
        self, epoch: int, config_key: str, seen_counters: list | None = None
    ) -> None:
        """Record ``epoch`` as a completed checkpoint; ``seen_counters`` is
        the per-shard ``[dedup_checks, dedup_hits]`` list at that point."""
        m = self.manifest()
        if epoch not in m["completed_epochs"]:
            m["completed_epochs"].append(epoch)
        m["config"] = config_key
        if seen_counters is not None:
            m.setdefault("seen_counters", {})[str(epoch)] = seen_counters
        self._write_manifest(m)

    def seen_counters(self, epoch: int) -> list | None:
        """Per-shard seen counters recorded with checkpoint ``epoch``."""
        return self.manifest().get("seen_counters", {}).get(str(epoch))

    def mark_done(self) -> None:
        m = self.manifest()
        m["done"] = True
        self._write_manifest(m)

    # -- tables -----------------------------------------------------------
    def epoch_dir(self, table: str, epoch: int) -> str:
        return os.path.join(self.root, table, f"epoch={epoch}")

    def write(self, table: str, epoch: int, data: pa.Table) -> None:
        directory = self.epoch_dir(table, epoch)
        if os.path.exists(directory):  # idempotent re-run of a failed epoch
            shutil.rmtree(directory)
        write_table(data, directory)

    def write_async(self, epoch: int, tables: dict[str, pa.Table]):
        """Write every ``{table: data}`` of ``epoch`` in ONE Ray task (each
        table's epoch dir replaced wholesale); returns its ref, which the
        caller ray.get()s before marking the epoch complete. The tables
        travel as Arrow IPC (``to_wire``), so the write task's worker never
        loads Ray's ``pa.Table`` pickler."""
        return _write_task.remote(
            {self.epoch_dir(name, epoch): to_wire(data) for name, data in tables.items()}
        )

    def epochs(self, table: str, upto_epoch: int | None = None) -> list[int]:
        """Epochs that have a ``table`` directory, ascending."""
        base = os.path.join(self.root, table)
        if not os.path.isdir(base):
            return []
        epochs = sorted(
            int(d.split("=")[1]) for d in os.listdir(base) if d.startswith("epoch=")
        )
        if upto_epoch is not None:
            epochs = [e for e in epochs if e <= upto_epoch]
        return epochs

    def read(self, table: str, epoch: int, columns: list[str] | None = None) -> pa.Table:
        return read_table(self.epoch_dir(table, epoch), columns)

    def read_all(
        self,
        table: str,
        upto_epoch: int | None = None,
        columns: list[str] | None = None,
    ) -> pa.Table | None:
        tables = [self.read(table, e, columns) for e in self.epochs(table, upto_epoch)]
        return pa.concat_tables(tables) if tables else None


def write_partitioned(
    ds,
    out_dir: str,
    key_col: str,
    filename_col: str | None = None,
):
    """Hive-style partitioned parquet sink: ``out_dir/<key_col>=<value>/
    part-<first_id>.parquet``, written by the owning map task (no driver
    traffic, no shuffle — each task splits ITS batch by key and appends
    one file per local key group; a key spanning tasks simply owns
    several part files, which every parquet reader unions). Part names
    derive from each group's first ``filename_col`` value (default: the
    key + row offset), so re-runs overwrite the same files — the
    resumable-output layout the 100 TB brief requires. Returns the
    manifest Dataset (partition, path, rows)."""
    import pyarrow.compute as pc

    os.makedirs(out_dir, exist_ok=True)

    def write_batch(batch: pa.Table) -> pa.Table:
        parts, paths, rows = [], [], []
        keys = batch.column(key_col)
        for val in pc.unique(keys).to_pylist():
            group = batch.filter(pc.equal(keys, pa.scalar(val)))
            part_dir = os.path.join(out_dir, f"{key_col}={val}")
            if filename_col is not None:
                first = str(group.column(filename_col)[0].as_py())
            else:
                import hashlib

                first = hashlib.md5(
                    str(group.column(0)[0].as_py()).encode()
                ).hexdigest()[:12]
            path = write_table(group, part_dir, f"part-{first}.parquet")
            parts.append(str(val))
            paths.append(path)
            rows.append(group.num_rows)
        return pa.table(
            {
                "partition": pa.array(parts, pa.string()),
                "path": pa.array(paths, pa.string()),
                "rows": pa.array(rows, pa.int64()),
            }
        )

    return ds.map_batches(write_batch, batch_format="pyarrow")

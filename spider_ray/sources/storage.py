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


def read_table(path_or_dir: str) -> pa.Table:
    if os.path.isdir(path_or_dir):
        if HAVE_LANCE:
            lance_parts = sorted(
                os.path.join(path_or_dir, f)
                for f in os.listdir(path_or_dir)
                if f.endswith(".lance")
            )
            if lance_parts:
                return pa.concat_tables(
                    [lance.dataset(p).to_table() for p in lance_parts]
                )
        parts = sorted(
            os.path.join(path_or_dir, f)
            for f in os.listdir(path_or_dir)
            if f.endswith(".parquet")
        )
        return pa.concat_tables([pq.read_table(p) for p in parts])
    return pq.read_table(path_or_dir)


WRITE_TASK_NUM_CPUS = 0.25

try:
    import ray as _ray

    @_ray.remote(num_cpus=WRITE_TASK_NUM_CPUS)
    def _write_task(data: pa.Table, directory: str) -> str:
        if os.path.exists(directory):
            shutil.rmtree(directory)
        return write_table(data, directory)

except ImportError:  # pragma: no cover
    _write_task = None


class EpochStore:
    """Checkpoint layout for a crawl run.

    ``root/manifest.json`` records completed epochs; per-epoch directories
    hold frontier / seen / pages / images / documents / lineage / order
    tables. Epoch writes are idempotent (directory replaced wholesale), so
    a crash mid-epoch re-runs that epoch from the previous checkpoint.
    """

    TABLES = ("frontier", "seen", "pages", "images", "documents", "lineage", "order")

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

    def mark_epoch_complete(self, epoch: int, config_key: str) -> None:
        m = self.manifest()
        if epoch not in m["completed_epochs"]:
            m["completed_epochs"].append(epoch)
        m["config"] = config_key
        self._write_manifest(m)

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

    def write_async(self, table: str, epoch: int, data: pa.Table):
        """Checkpoint write as a Ray task (parallel across tables within an
        epoch; caller ray.get()s the refs before marking the epoch done)."""
        import ray

        return _write_task.remote(data, self.epoch_dir(table, epoch))

    def link_frontier(self, epoch: int, extra: pa.Table, dirs: list[str]) -> None:
        """Checkpoint a distributed frontier: hardlink the partition files
        of ``dirs`` into the frontier epoch dir (same filesystem → zero
        data copied; falls back to copy across devices) and write the small
        driver-resident increment as one extra part. Hardlinked files
        survive deletion of the transient source dirs."""
        directory = self.epoch_dir("frontier", epoch)
        if os.path.exists(directory):
            shutil.rmtree(directory)
        os.makedirs(directory, exist_ok=True)
        for i, src_dir in enumerate(dirs):
            if not os.path.isdir(src_dir):
                continue
            for fname in sorted(os.listdir(src_dir)):
                if not fname.endswith(".parquet"):
                    continue
                src = os.path.join(src_dir, fname)
                dst = os.path.join(directory, f"link-{i}-{fname}")
                try:
                    os.link(src, dst)
                except OSError:  # pragma: no cover - cross-device fallback
                    shutil.copy2(src, dst)
        if extra.num_rows:
            write_table(extra, directory, "part-extra.parquet")

    def read(self, table: str, epoch: int) -> pa.Table:
        return read_table(self.epoch_dir(table, epoch))

    def read_all(self, table: str, upto_epoch: int | None = None) -> pa.Table | None:
        base = os.path.join(self.root, table)
        if not os.path.isdir(base):
            return None
        epochs = sorted(
            int(d.split("=")[1]) for d in os.listdir(base) if d.startswith("epoch=")
        )
        if upto_epoch is not None:
            epochs = [e for e in epochs if e <= upto_epoch]
        tables = [self.read(table, e) for e in epochs]
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

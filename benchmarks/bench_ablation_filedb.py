"""A7 — Ablation: disk-backed passes restore the paper's cost model.

With an in-memory database the pass-count difference between the Naive
(2n) and Improved (n+1) schedule barely shows in wall-clock time; the
paper's database lived on disk, where every extra pass costs real IO.
This ablation runs both miners over a :class:`FileBackedDatabase` —
which re-reads and re-parses the basket file on every pass — and reports
time, pass counts and bytes read. Bytes read are the *physical* reads
(``physical_passes`` x file size): the generalized miners count levels
1 and 2 from one read, so physical passes fall one short of the
paper's logical ``data passes``. Each miner gets a fresh database, so
neither reuses what the other's run kept with it.

Run directly::

    python -m benchmarks.bench_ablation_filedb
"""

import tempfile
import time
from pathlib import Path

import pytest

from repro.core.negmining import ImprovedNegativeMiner, NaiveNegativeMiner
from repro.data.filedb import FileBackedDatabase
from repro.data.io import save_basket_file

from .common import MINRI, dataset, support_sweep

MINSUP = support_sweep()[0]


def _materialize(tmp_dir: str) -> tuple[Path, object, int]:
    data = dataset("short")
    path = Path(tmp_dir) / "short.basket"
    save_basket_file(data.database, path)
    return path, data.taxonomy, path.stat().st_size


@pytest.mark.parametrize(
    "miner_class", [ImprovedNegativeMiner, NaiveNegativeMiner],
    ids=["improved", "naive"],
)
def test_filedb_miner(benchmark, tmp_path, miner_class):
    path, taxonomy, file_size = _materialize(str(tmp_path))

    def mine():
        file_db = FileBackedDatabase(path)
        return miner_class(file_db, taxonomy, MINSUP, MINRI).mine()

    output = benchmark.pedantic(mine, rounds=1, iterations=1)
    benchmark.extra_info.update(
        passes=output.stats.data_passes,
        physical_passes=output.stats.physical_passes,
        bytes_read=output.stats.physical_passes * file_size,
    )


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp_dir:
        path, taxonomy, file_size = _materialize(tmp_dir)
        print(
            f"=== A7: disk-backed mining at MinSup={MINSUP} "
            f"(basket file {file_size / 1024:.0f} KiB) ==="
        )
        for label, miner_class in (
            ("improved", ImprovedNegativeMiner),
            ("naive", NaiveNegativeMiner),
        ):
            file_db = FileBackedDatabase(path)
            started = time.perf_counter()
            output = miner_class(file_db, taxonomy, MINSUP, MINRI).mine()
            elapsed = time.perf_counter() - started
            read = output.stats.physical_passes * file_size
            print(
                f"  {label:<9} time={elapsed:7.2f}s "
                f"passes={output.stats.data_passes:3d} "
                f"physical={output.stats.physical_passes:3d} "
                f"IO={read / 1024:7.0f} KiB "
                f"negatives={output.stats.negative_itemsets}"
            )
        print(
            "\nthe Naive schedule's extra passes are pure re-read/"
            "re-parse cost — the 1998 trade-off, reconstructed."
        )


if __name__ == "__main__":
    main()

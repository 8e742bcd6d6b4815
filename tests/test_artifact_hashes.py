"""Listing and comparison of tools/artifact_hashes.py on made-up digests; no
CLI process is started."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "artifact_hashes.py"
_SPEC = importlib.util.spec_from_file_location("artifact_hashes", _PATH)
artifact_hashes = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(artifact_hashes)


def test_digests_and_listing_round_trip(tmp_path):
    out = tmp_path / "out"
    (out / "run" / "similar").mkdir(parents=True)
    (out / "run" / "a b.csv").write_bytes(b"x")
    (out / "run" / "similar" / "c.json").write_bytes(b"")
    table = artifact_hashes.digests(out)
    assert list(table) == ["run/a b.csv", "run/similar/c.json"]
    assert table["run/similar/c.json"] == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )
    listing = tmp_path / "listing.txt"
    head = ["# numpy 1, scipy 2, OpenBLAS 3, core X", "# OPENBLAS_NUM_THREADS=1"]
    listing.write_text("\n".join([*head, *(f"{d}  {n}" for n, d in table.items())]) + "\n")
    assert artifact_hashes.read_listing(listing) == (head, table)


def test_differences_name_each_kind():
    old = {"kept": "a" * 64, "moved": "b" * 64, "gone": "c" * 64}
    new = {"kept": "a" * 64, "moved": "d" * 64, "added": "e" * 64}
    head = ["# numpy 1", "# OPENBLAS_NUM_THREADS=1"]
    assert artifact_hashes.differences(head, old, head, old) == []
    assert artifact_hashes.differences(head, old, ["# numpy 1", "# unset"], new) == [
        "header was # OPENBLAS_NUM_THREADS=1",
        "new      added",
        "gone     gone",
        f"changed  moved  {'b' * 12} -> {'d' * 12}",
    ]


def test_commands_cover_every_strategy_label_and_both_sizes():
    commands = artifact_hashes.COMMANDS
    unlearned = [argv[argv.index("--strategy") + 1] for _, argv in commands
                 if "--strategy" in argv]
    assert unlearned == artifact_hashes.LABELS and len(set(unlearned)) == 6
    names = {argv[0] for _, argv in commands}
    assert names == {"gen-data", "train", "gen-prompts", "unlearn", "eval", "sweep",
                     "diversity-ablation"}
    assert [argv[0] for directory, argv in commands if directory == "defaults"] == [
        "train", "unlearn", "eval", "eval"
    ]

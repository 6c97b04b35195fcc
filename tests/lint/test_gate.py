"""The zero-findings gate, and injected-violation smoke tests.

The gate (``python -m repro.lint src`` in ``scripts/check.sh``) only
means something if (a) the live tree is clean and (b) the analyzer would
actually catch the regressions it exists for.  The smoke tests prove (b)
end to end: copy a real source file into a scratch tree, re-introduce a
historical bug class with a minimal mutation, and require the analyzer
to flag it.
"""

import shutil
from pathlib import Path

from repro.lint import check_paths, default_rules

SRC = Path(__file__).resolve().parents[2] / "src"


def _copy_into_tree(tmp_path, rel):
    """Copy ``src/<rel>`` to ``tmp/<rel>`` so path-keyed rules still apply."""
    dest = tmp_path / rel
    dest.parent.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(SRC / rel, dest)
    return dest


def test_source_tree_is_clean():
    assert check_paths([SRC], default_rules()) == []


def test_pristine_copies_are_clean(tmp_path):
    for rel in ("repro/storage/device.py", "repro/storage/manager.py"):
        _copy_into_tree(tmp_path, rel)
    assert check_paths([tmp_path], default_rules()) == []


def test_injected_unguarded_counter_is_caught(tmp_path):
    dest = _copy_into_tree(tmp_path, "repro/storage/device.py")
    dest.write_text(
        dest.read_text()
        + "\n    def poke(self):\n        self._reads += 1\n"
    )
    findings = check_paths([tmp_path], default_rules())
    assert len(findings) == 1
    assert findings[0].rule == "guarded-by"
    assert "_reads is written without holding self._stats_lock" in findings[0].message


def test_injected_journal_before_write_is_caught(tmp_path):
    dest = _copy_into_tree(tmp_path, "repro/storage/manager.py")
    source = dest.read_text()
    target = "            device.write(key, payload)"
    assert source.count(target) == 1, "flush_chunk write site moved; update test"
    dest.write_text(
        source.replace(
            target,
            '            self.journal.append({"op": "chunk"})\n' + target,
        )
    )
    findings = check_paths([tmp_path], default_rules())
    assert len(findings) == 1
    assert findings[0].rule == "commit-point"
    assert "'chunk' record appended before" in findings[0].message


def test_injected_delete_before_free_record_is_caught(tmp_path):
    dest = _copy_into_tree(tmp_path, "repro/storage/manager.py")
    source = dest.read_text()
    # Move the free record below the device-deletion loop: the
    # resurrect-on-replay ordering §6.2 forbids.
    record = (
        "        if self.journal is not None:\n"
        '            self.journal.append({"op": "free", "context_id": context_id})\n'
    )
    anchor = "        self._token_logs.pop(context_id, None)\n"
    assert source.count(record) == 1, "free-record site moved; update test"
    assert source.count(anchor) == 1
    dest.write_text(source.replace(record, "").replace(anchor, record + anchor))
    findings = check_paths([tmp_path], default_rules())
    assert len(findings) == 1
    assert findings[0].rule == "commit-point"
    assert "after a deletion" in findings[0].message


def test_injected_hot_path_copy_is_caught(tmp_path):
    dest = _copy_into_tree(tmp_path, "repro/storage/device.py")
    source = dest.read_text()
    target = "        np.copyto(out, payload)"
    assert source.count(target) == 1
    dest.write_text(source.replace(target, "        out[:] = payload.copy()"))
    findings = check_paths([tmp_path], default_rules())
    assert len(findings) == 1
    assert findings[0].rule == "hot-path"
    assert "StorageDevice.read_into" in findings[0].message


def test_injected_stale_import_is_caught(tmp_path):
    # The edit that moves a call out of a module and leaves its import.
    dest = _copy_into_tree(tmp_path, "repro/models/ffn.py")
    source = dest.read_text()
    target = "matmul(gelu(matmul(x, weights.w_up)), weights.w_down)"
    assert source.count(target) == 1, "gelu_ffn moved; update test"
    dest.write_text(source.replace(target, "matmul(matmul(x, weights.w_up), weights.w_down)"))
    findings = check_paths([tmp_path], default_rules())
    assert len(findings) == 1
    assert findings[0].rule == "unused-import"
    assert "'gelu' is imported but never used" in findings[0].message

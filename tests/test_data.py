"""Dataset schema, splitting, and the synthetic generator."""

import json
import math
import os
import pickle
import random
import re
import signal
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from faultcast import data
from faultcast.data import (
    CHANGE_PROB,
    DEFAULT_SYNTH_CONFIG,
    DEV_GAIN,
    LEVEL_SD,
    DatasetError,
    DatasetMeta,
    ModelDims,
    Sample,
    SynthConfig,
    class_stats,
    load_dataset,
    numeric_array,
    save_dataset,
    segment_labels,
    split_samples,
    synth_generate,
)
from faultcast.num import make_rng
from dataclasses import fields, replace


RECORD_KEYS = tuple(f.name for f in fields(Sample))  # a sample record's keys


def small_config(**overrides):
    return replace(SynthConfig(seed=7), **overrides)


class TestRoundTrip:
    def test_save_load_bit_exact(self, tmp_path):
        meta, samples = synth_generate(small_config(), 12)
        path = tmp_path / "data.jsonl"
        save_dataset(path, meta, samples)
        meta2, samples2 = load_dataset(path)
        assert meta2 == meta
        assert len(samples2) == 12
        for a, b in zip(samples, samples2):
            np.testing.assert_array_equal(a.obs, b.obs)
            np.testing.assert_array_equal(a.ctx, b.ctx)
            np.testing.assert_array_equal(a.labels, b.labels)
            np.testing.assert_array_equal(a.step_labels, b.step_labels)

    def test_same_dataset_same_bytes(self, tmp_path):
        meta, samples = synth_generate(small_config(), 5)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(p1, meta, samples)
        save_dataset(p2, meta, samples)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_dataset_accepted(self, tmp_path):
        meta, _ = synth_generate(small_config(), 0)
        path = tmp_path / "empty.jsonl"
        save_dataset(path, meta, [])
        meta2, samples2 = load_dataset(path)
        assert meta2 == meta and samples2 == []

    def test_inconsistent_sample_rejected_with_index(self, tmp_path):
        meta, samples = synth_generate(small_config(), 3)
        bad = samples[1]
        bad.labels[:] = 0.0
        bad.step_labels[0, 0] = 1.0
        path = tmp_path / "bad.jsonl"
        with pytest.raises(DatasetError, match="sample 1.*inconsistent"):
            save_dataset(path, meta, samples)

    def test_save_writes_nothing_when_a_sample_is_invalid(self, tmp_path):
        # the last sample is bad: no header and no record of the others
        meta, samples = synth_generate(small_config(), 3)
        samples[2].obs[0, 0] = np.inf
        path = tmp_path / "bad.jsonl"
        with pytest.raises(DatasetError, match="sample 2: non-finite"):
            save_dataset(path, meta, samples)
        assert not path.exists()

    def test_load_names_an_invalid_sample_before_a_malformed_line(self, tmp_path,
                                                                  monkeypatch):
        meta, samples = synth_generate(small_config(), 4)
        path = tmp_path / "data.jsonl"
        save_dataset(path, meta, samples)
        header, *records = path.read_text().splitlines()
        records[2] = re.sub(r'"labels":\[\d', '"labels":[2', records[2], count=1)
        records[3] = records[3][:-2]
        path.write_text("\n".join([header, *records]) + "\n")
        # one check of all records, then checks of 1 and 2 records, where the
        # bad record falls in a later check than the first
        for per_check in (data.CHECK_RECORDS, 1, 2):
            monkeypatch.setattr(data, "CHECK_RECORDS", per_check)
            with pytest.raises(DatasetError) as info:
                load_dataset(path)
            assert str(info.value) == f"{path}: line 4: sample 2: segment labels must be binary"

    def test_load_rejects_corrupted_record(self, tmp_path):
        meta, samples = synth_generate(small_config(), 2)
        path = tmp_path / "data.jsonl"
        save_dataset(path, meta, samples)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace('"labels":[', '"labels":[1,', 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match="sample 1"):
            load_dataset(path)

    def test_load_rejects_non_finite(self, tmp_path):
        meta, samples = synth_generate(small_config(), 1)
        path = tmp_path / "data.jsonl"
        save_dataset(path, meta, samples)
        text = path.read_text()
        first_obs = str(samples[0].obs[0, 0])
        path.write_text(text.replace(first_obs, "NaN", 1))
        with pytest.raises(DatasetError, match="sample 0"):
            load_dataset(path)

    def test_not_a_dataset(self, tmp_path):
        path = tmp_path / "other.jsonl"
        path.write_text('{"format":"something"}\n')
        with pytest.raises(DatasetError, match="format"):
            load_dataset(path)

    @pytest.mark.parametrize("key", ["tau", "total_steps", "n_labels", "d_obs", "d_ctx",
                                     "label_names", "source"])
    def test_header_missing_key_names_path_line_and_key(self, tmp_path, key):
        meta, samples = synth_generate(small_config(), 2)
        path = tmp_path / "data.jsonl"
        save_dataset(path, meta, samples)
        header, *rest = path.read_text().splitlines()
        doc = json.loads(header)
        del doc[key]
        path.write_text("\n".join([json.dumps(doc), *rest]) + "\n")
        with pytest.raises(DatasetError) as info:
            load_dataset(path)
        assert str(path) in str(info.value)
        assert "line 1" in str(info.value) and repr(key) in str(info.value)

    def test_header_wrong_type_rejected(self, tmp_path):
        meta, samples = synth_generate(small_config(), 1)
        path = tmp_path / "data.jsonl"
        save_dataset(path, meta, samples)
        header, *rest = path.read_text().splitlines()
        doc = json.loads(header)
        doc["tau"] = "4"
        path.write_text("\n".join([json.dumps(doc), *rest]) + "\n")
        with pytest.raises(DatasetError, match="line 1.*'tau'"):
            load_dataset(path)

    def test_header_not_an_object(self, tmp_path):
        path = tmp_path / "list.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(DatasetError, match="line 1.*format"):
            load_dataset(path)

    def test_truncated_sample_line_names_sample(self, tmp_path):
        meta, samples = synth_generate(small_config(), 2)
        path = tmp_path / "data.jsonl"
        save_dataset(path, meta, samples)
        text = path.read_text()
        path.write_text(text[: len(text) - 20] + "\n")
        with pytest.raises(DatasetError, match="sample 1"):
            load_dataset(path)

    def test_blank_line_keeps_record_numbering(self, tmp_path):
        # a blank line after the header; the corrupt second sample sits on
        # file line 4 and is still sample 1
        meta, samples = synth_generate(small_config(), 3)
        path = tmp_path / "data.jsonl"
        save_dataset(path, meta, samples)
        header, *records = path.read_text().splitlines()
        records[1] = records[1].replace('"labels":[', '"labels":[1,', 1)
        path.write_text("\n".join([header, "", *records]) + "\n")
        with pytest.raises(DatasetError) as info:
            load_dataset(path)
        assert str(info.value).startswith(f"{path}: line 4: sample 1: segment label shape")

    @pytest.mark.parametrize("corrupt, reason", [
        (lambda rec: rec[:-2], "malformed record"),
        (lambda rec: rec.replace('"obs"', '"obz"', 1), "'obs'"),
        # all true/false reads as bool, which is no numeric array
        (lambda rec: re.sub(r'"labels":\[[^]]*\]', '"labels":[true,false,false,false]', rec),
         "key 'labels': must be a numeric array"),
    ])
    def test_malformed_record_names_path_and_line(self, tmp_path, corrupt, reason):
        meta, samples = synth_generate(small_config(), 2)
        path = tmp_path / "data.jsonl"
        save_dataset(path, meta, samples)
        lines = path.read_text().splitlines()
        lines[2] = corrupt(lines[2])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError) as info:
            load_dataset(path)
        message = str(info.value)
        assert message.startswith(f"{path}: line 3: sample 1: ") and reason in message


    @pytest.mark.parametrize("record_by_record", [False, True])
    @pytest.mark.parametrize("d_obs", [0, 2])
    def test_tau_0_round_trip(self, tmp_path, monkeypatch, d_obs, record_by_record):
        # (0, d_obs) observations are written as [], read as their declared shape
        meta, samples = synth_generate(small_config(tau=0, total_steps=3, d_obs=d_obs), 5)
        path = tmp_path / "data.jsonl"
        save_dataset(path, meta, samples)
        if record_by_record:  # blocks of one record
            monkeypatch.setattr(data, "CHECK_RECORDS", 1)
        meta2, samples2 = load_dataset(path)
        assert meta2 == meta and len(samples2) == 5
        for a, b in zip(samples, samples2):
            for key in RECORD_KEYS:
                got, want = getattr(b, key), getattr(a, key)
                assert (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype,
                                                                  want.tobytes()), key

    def test_an_empty_array_keeps_a_declared_shape_that_holds_numbers(self, tmp_path):
        meta, samples = synth_generate(small_config(), 2)
        path = tmp_path / "data.jsonl"
        save_dataset(path, meta, samples)
        header, *records = path.read_text().splitlines()
        records[1] = re.sub(r'"obs":\[.*?\]\]', '"obs":[]', records[1], count=1)
        path.write_text("\n".join([header, *records]) + "\n")
        with pytest.raises(DatasetError) as info:
            load_dataset(path)
        assert str(info.value) == f"{path}: line 3: sample 1: observations shape (0,) != (4, 2)"


def record_shapes(d: ModelDims) -> dict:
    return {"obs": (d.tau, d.d_obs), "ctx": (d.total_steps, d.d_ctx),
            "labels": (d.n_labels,), "step_labels": (d.horizon, d.n_labels)}


def reference_error(shapes, samples):
    """(index, reason) of the first sample that breaks the schema, each
    sample checked on its own: its shapes in key order, an empty array
    taken as its declared shape when that holds no numbers either, then
    its values by data._value_error."""
    for index, s in enumerate(samples):
        arrays = [getattr(s, key) for key in shapes]
        arrays = [arr.reshape(shape) if arr.size == 0 and math.prod(shape) == 0 else arr
                  for arr, shape in zip(arrays, shapes.values())]
        for (key, shape), arr in zip(shapes.items(), arrays):
            if arr.shape != shape:
                return index, f"{data._SHAPE_NAMES[key]} shape {arr.shape} != {shape}"
        if bad := data._value_error(*(arr[None] for arr in arrays)):
            return index, bad[1]
    return None


def reference_load(path):
    """The record-by-record reader load_dataset must agree with: every
    record parsed by numeric_array up to the first malformed one, an empty
    array read as its declared shape when that holds no numbers, then
    reference_error over the samples."""
    with open(path, "r", encoding="utf-8") as fh:
        meta = data._read_header(path, fh.readline().encode())
        rest = list(enumerate(fh, start=2))
    shapes = record_shapes(meta.dims)
    samples, lines, malformed = [], [], None
    for lineno, line in rest:
        if not line.strip():
            continue
        lines.append(lineno)
        try:
            rec = json.loads(line)
            arrays = {key: numeric_array(rec[key]) for key in RECORD_KEYS}
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            malformed = len(samples), f"malformed record ({exc})"
            break
        if wrong := [key for key, arr in arrays.items() if arr is None]:
            malformed = len(samples), f"key {wrong[0]!r}: must be a numeric array"
            break
        samples.append(Sample(**{key: arr.reshape(shapes[key])
                                 if arr.size == 0 and math.prod(shapes[key]) == 0 else arr
                                 for key, arr in arrays.items()}))
    bad = reference_error(shapes, samples) or malformed
    if bad is not None:
        raise DatasetError(f"{path}: line {lines[bad[0]]}: sample {bad[0]}: {bad[1]}")
    return meta, samples


def _outcome(load, path):
    """("ok", dims, every array's shape, dtype and bytes) or ("error", message)."""
    try:
        meta, samples = load(path)
    except DatasetError as exc:
        return "error", str(exc)
    return "ok", meta, [(a.shape, a.dtype, a.tobytes()) for s in samples
                        for a in (s.obs, s.ctx, s.labels, s.step_labels)]


def _numbers(value):
    """Paths (index tuples) of the numbers in a nested list."""
    if isinstance(value, list):
        return [(k, *rest) for k, item in enumerate(value) for rest in _numbers(item)]
    return [()]


def _mutate_record(rec: dict, kind: str, rnd) -> dict:
    """`rec`, a sample record with one key or more, with one seeded change
    of `kind` in one of its keys."""
    key = rnd.choice(sorted(rec))
    if kind == "missing key":
        del rec[key]
    elif kind == "deep nesting":  # past the decoder's recursion limit
        rec[key] = DEEP
    elif kind == "all true/false":
        rec[key] = json.loads(re.sub(r"-?[\d.]+(e-?\d+)?|NaN",
                                     lambda _: rnd.choice(["true", "false"]),
                                     json.dumps(rec[key])))
    elif kind == "ragged" and (rows := [r for r in rec[key] if isinstance(r, list)]):
        rnd.choice(rows).append(0.0)
    elif kind == "ragged":
        rec[key].append([0.0])
    elif paths := [p for p in _numbers(rec[key]) if p]:
        *at, last = rnd.choice(paths)
        node = rec[key]
        for k in at:
            node = node[k]
        node[last] = {"null": None, "string": "0.5", "NaN": math.nan, "big integer":
                      rnd.choice([2**64, -(2**70), 10**400])}[kind]
    return rec


MUTATIONS = ("none", "all true/false", "null", "string", "NaN", "big integer", "ragged",
             "missing key", "blank lines", "truncation", "deep nesting")
DEEP = "DEEP"  # a mutated line holds a 100,000-deep list in its place


def _random_dataset(dims: ModelDims, n: int, seed: int):
    """A valid dataset of n seeded samples of `dims`."""
    rng = make_rng(seed)
    samples = []
    for _ in range(n):
        step_labels = (rng.uniform(size=(dims.horizon, dims.n_labels)) < 0.3).astype(float)
        samples.append(Sample(rng.normal(size=(dims.tau, dims.d_obs)),
                              rng.normal(size=(dims.total_steps, dims.d_ctx)),
                              segment_labels(step_labels), step_labels))
    return DatasetMeta(dims, tuple(f"l{k}" for k in range(dims.n_labels))), samples


def _write_mutated(path, dims: ModelDims, n: int, mutations, seed: int) -> None:
    """Save n seeded samples of `dims` at `path`, then apply each (kind,
    seed) of `mutations` to a line: a kind of MUTATIONS."""
    save_dataset(path, *_random_dataset(dims, n, seed))
    header, *records = path.read_text().splitlines()
    for kind, at in mutations:
        rnd = random.Random(at)
        k = rnd.randrange(len(records) + 1)
        if kind == "blank lines":
            records.insert(k, rnd.choice(["", "  ", "\t"]))
        elif kind == "truncation" and records:
            line = records[k % len(records)]
            records[k % len(records)] = line[: rnd.randrange(max(1, len(line)))]
        elif kind != "none" and records:
            try:  # not a blank, truncated or deep line
                rec = json.loads(records[k % len(records)])
            except (ValueError, RecursionError):
                continue
            records[k % len(records)] = json.dumps(
                _mutate_record(rec, kind, rnd), separators=(",", ":")
            ).replace(f'"{DEEP}"', "[" * 100_000 + "]" * 100_000)
    path.write_text("\n".join([header, *records]) + "\n")


class TestReaderProperty:
    @settings(max_examples=150, deadline=None)
    @given(tau=st.integers(0, 3), horizon=st.integers(1, 3), n_labels=st.integers(1, 3),
           d_obs=st.integers(0, 2), d_ctx=st.integers(0, 2), n=st.integers(0, 7),
           per_block=st.sampled_from((1, 2, 64)),
           mutations=st.lists(st.tuples(st.sampled_from(MUTATIONS), st.integers(0, 2**32)),
                              max_size=2),
           seed=st.integers(0, 2**32))
    @example(tau=0, horizon=2, n_labels=2, d_obs=0, d_ctx=0, n=3, per_block=2,
             mutations=[("all true/false", 5)], seed=1)
    @example(tau=1, horizon=1, n_labels=1, d_obs=1, d_ctx=1, n=3, per_block=2,
             mutations=[("deep nesting", 1)], seed=1)
    def test_matches_the_record_by_record_reference(self, tmp_path_factory, tau, horizon,
                                                    n_labels, d_obs, d_ctx, n, per_block,
                                                    mutations, seed):
        """Valid datasets of small random dims, with seeded line mutations:
        load_dataset returns bit-identical arrays or raises the same message."""
        path = tmp_path_factory.mktemp("reader") / "data.jsonl"
        _write_mutated(path, ModelDims(n_labels, d_obs, d_ctx, tau, tau + horizon), n,
                       mutations, seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(data, "CHECK_RECORDS", per_block)
            assert _outcome(load_dataset, path) == _outcome(reference_load, path)


ONE_PROCESS = 2**62  # a SPLIT_BYTES no file reaches


def _load_both(path, monkeypatch):
    """_outcome of load_dataset on one process, then split at the middle."""
    outcomes = []
    for split_bytes in (ONE_PROCESS, 0):
        monkeypatch.setattr(data, "SPLIT_BYTES", split_bytes)
        outcomes.append(_outcome(load_dataset, path))
    return outcomes


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


@pytest.fixture
def forks(monkeypatch):
    """The pids os.fork returned in this process, 0 in a child."""
    pids, fork = [], os.fork

    def counted():
        pids.append(fork())
        return pids[-1]

    monkeypatch.setattr(os, "fork", counted)
    return pids


def _split_of(text: bytes) -> int:
    """Where load_dataset splits the bytes `text` of a file with \\n line
    ends: past the first line end at or after the middle of its records."""
    start = text.index(b"\n") + 1
    return text.find(b"\n", (start + len(text)) // 2) + 1 or len(text)


def _split_file(tmp_path, n=8, edit=None):
    """A saved dataset of n seeded samples at tmp_path, its lines given to
    `edit` first, and the offset of its split."""
    path = tmp_path / "data.jsonl"
    save_dataset(path, *_random_dataset(ModelDims(2, 2, 1, 3, 5), n, 3))
    if edit:
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    return path, _split_of(path.read_bytes())


class TestSplitLoad:
    @settings(max_examples=60, deadline=None)
    @given(tau=st.integers(0, 3), horizon=st.integers(1, 3), n_labels=st.integers(1, 3),
           d_obs=st.integers(0, 2), d_ctx=st.integers(0, 2), n=st.integers(0, 7),
           mutations=st.lists(st.tuples(st.sampled_from(MUTATIONS), st.integers(0, 2**32)),
                              max_size=2),
           seed=st.integers(0, 2**32))
    def test_matches_the_one_process_load(self, tmp_path_factory, tau, horizon, n_labels,
                                          d_obs, d_ctx, n, mutations, seed):
        """TestReaderProperty's files split at every size: the same arrays
        or the same message as one process, and no child left."""
        path = tmp_path_factory.mktemp("split") / "data.jsonl"
        _write_mutated(path, ModelDims(n_labels, d_obs, d_ctx, tau, tau + horizon), n,
                       mutations, seed)
        with pytest.MonkeyPatch.context() as patch:
            one, two = _load_both(path, patch)
        assert one == two and _no_child_left()

    def test_a_child_decodes_the_second_half(self, tmp_path, monkeypatch, forks):
        path, split = _split_file(tmp_path)
        one, two = _load_both(path, monkeypatch)
        assert one == two and one[0] == "ok" and len(forks) == 1 and _no_child_left()

    @pytest.mark.parametrize("at", [0, 1])  # the split lands after or on the blank line
    def test_a_blank_line_at_the_split(self, tmp_path, monkeypatch, at):
        path, split = _split_file(tmp_path)
        text = path.read_bytes()
        text = text[: split - at] + b"\n" + text[split - at :]
        path.write_bytes(text)
        assert b"\n\n" in text[_split_of(text) - 2 : _split_of(text) + 1]
        one, two = _load_both(path, monkeypatch)
        assert one == two and one[0] == "ok" and len(one[2]) == 4 * 8

    def test_the_split_on_the_last_record(self, tmp_path, monkeypatch, forks):
        # a first record padded with spaces past half of the records' bytes
        path, split = _split_file(tmp_path, n=2,
                                         edit=lambda lines: [lines[0], lines[1] + " " * 2000,
                                                             lines[2]])
        assert path.read_text().splitlines()[2] == path.read_bytes()[split:].decode().strip()
        one, two = _load_both(path, monkeypatch)
        assert one == two and one[0] == "ok" and len(forks) == 1

    def test_no_child_when_the_split_is_the_end(self, tmp_path, monkeypatch, forks):
        path, split = _split_file(tmp_path, n=1)
        assert split == path.stat().st_size
        one, two = _load_both(path, monkeypatch)
        assert one == two and one[0] == "ok" and forks == []

    @pytest.mark.parametrize("bad", [[1], [6], [1, 6]])  # the first half, the second, both
    def test_the_first_bad_record_in_file_order(self, tmp_path, monkeypatch, forks, bad):
        def edit(lines):
            for k in bad:
                lines[1 + k] = lines[1 + k].replace('"labels":[', '"labels":[2,', 1)
            return lines

        path, split = _split_file(tmp_path, edit=edit)
        one, two = _load_both(path, monkeypatch)
        assert one == two == ("error", f"{path}: line {2 + bad[0]}: sample {bad[0]}: "
                                       "segment label shape (3,) != (2,)")
        assert len(forks) == 1 and _no_child_left()

    # a record of the second half with a bad shape, or cut short, which the
    # JSON decoder's message places by character
    @pytest.mark.parametrize("bad", ["none", "shape", "truncated"])
    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_crlf_and_lone_cr_load_alike(self, tmp_path, monkeypatch, forks, newline, bad):
        def edit(lines):
            if bad == "shape":
                lines[7] = lines[7].replace('"labels":[', '"labels":[2,', 1)
            elif bad == "truncated":
                lines[7] = lines[7][:20]
            return [*lines[:5], "", *lines[5:]]  # and a blank line

        path, split = _split_file(tmp_path, edit=edit)
        want = _load_both(path, monkeypatch)
        assert want[0][0] == ("ok" if bad == "none" else "error")
        path.write_bytes(path.read_bytes().replace(b"\n", newline.encode()))
        assert _load_both(path, monkeypatch) == want and len(forks) == 2

    @pytest.mark.parametrize("written", [0, 1, 200])  # bytes of the pickle, then of arrays
    def test_a_child_killed_mid_write_is_reaped_and_its_half_decoded(
        self, tmp_path, monkeypatch, forks, written
    ):
        def dying(pipe, bad, samples):
            os.write(pipe, (pickle.dumps((bad, len(samples))) + bytes(200))[:written])
            os.kill(os.getpid(), signal.SIGKILL)

        path, split = _split_file(tmp_path)
        want = _load_both(path, monkeypatch)
        monkeypatch.setattr(data, "_send", dying)
        assert _load_both(path, monkeypatch) == want and len(forks) == 2 and _no_child_left()

    @pytest.mark.parametrize("setting", ["one CPU", "a second thread", "fork fails"])
    def test_one_process_where_a_fork_is_unsafe_or_fails(self, tmp_path, monkeypatch,
                                                         setting):
        path, split = _split_file(tmp_path)
        want = _load_both(path, monkeypatch)

        def fork():
            if setting != "fork fails":
                raise AssertionError("forked")
            raise OSError("no fork")

        monkeypatch.setattr(os, "fork", fork)
        if setting == "one CPU":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        if setting == "a second thread":
            thread.start()
        try:
            assert _load_both(path, monkeypatch) == want
        finally:
            stop.set()
            if thread.is_alive():
                thread.join(10)
                assert not thread.is_alive()


SAVE_FAULTS = ("none", "shape", "NaN", "inf", "non-binary", "inconsistent", "bool labels",
               "int labels")


def _fault_sample(s: Sample, kind: str, rnd) -> Sample:
    """`s` with one seeded fault of `kind`; "bool labels" and "int labels"
    give both its label arrays that dtype, which is no fault."""
    arrays = {key: getattr(s, key).copy() for key in RECORD_KEYS}
    if kind in ("bool labels", "int labels"):
        for key in ("labels", "step_labels"):
            with np.errstate(invalid="ignore"):  # an earlier NaN fault casts to some integer
                arrays[key] = arrays[key].astype(bool if kind == "bool labels" else np.int64)
    elif kind == "shape":
        key = rnd.choice(RECORD_KEYS)
        arr = arrays[key]
        arrays[key] = rnd.choice([arr.ravel(), arr[None], arr.T, arr[:-1],
                                  np.concatenate([arr, np.zeros((1, *arr.shape[1:]))])])
    elif kind != "none":  # one value of an array the kind concerns
        keys = {"NaN": ["obs", "ctx"], "inf": ["obs", "ctx"], "inconsistent": ["labels"],
                "non-binary": ["labels", "step_labels"]}[kind]
        if keys := [key for key in keys if arrays[key].size]:
            key = rnd.choice(keys)
            arr = arrays[key] = arrays[key].astype(np.float64)  # NaN fits no int or bool
            at = tuple(rnd.randrange(n) for n in arr.shape)
            arr[at] = {"NaN": math.nan, "inf": -math.inf, "inconsistent": 1.0 - arr[at],
                       "non-binary": rnd.choice([0.5, 2.0, math.nan])}[kind]
    return Sample(**arrays)


class TestSaveProperty:
    @settings(max_examples=100, deadline=None)
    @given(tau=st.integers(0, 3), horizon=st.integers(1, 3), n_labels=st.integers(1, 3),
           d_obs=st.integers(0, 2), d_ctx=st.integers(0, 2), n=st.integers(0, 7),
           per_check=st.sampled_from((1, 2, 64)),
           faults=st.lists(st.tuples(st.sampled_from(SAVE_FAULTS), st.integers(0, 2**32)),
                           max_size=3),
           seed=st.integers(0, 2**32))
    # every label array of the one check bool, or int: the file holds 0 and 1
    @example(tau=2, horizon=2, n_labels=2, d_obs=1, d_ctx=1, n=2, per_check=64,
             faults=[("bool labels", 0), ("bool labels", 1)], seed=1)
    @example(tau=2, horizon=2, n_labels=2, d_obs=1, d_ctx=1, n=2, per_check=64,
             faults=[("int labels", 0), ("int labels", 1)], seed=1)
    def test_matches_the_per_sample_reference(self, tmp_path_factory, tau, horizon, n_labels,
                                              d_obs, d_ctx, n, per_check, faults, seed):
        """Samples with seeded shape and value faults: save_dataset raises
        reference_error's message and writes nothing, or writes a file that
        loads back as the samples' values in float64."""
        meta, samples = _random_dataset(ModelDims(n_labels, d_obs, d_ctx, tau, tau + horizon),
                                        n, seed)
        for kind, at in faults:
            if samples:  # sample at % n, so an example picks it
                samples[at % n] = _fault_sample(samples[at % n], kind, random.Random(at))
        shapes = record_shapes(meta.dims)
        want = reference_error(shapes, samples)
        path = tmp_path_factory.mktemp("save") / "data.jsonl"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(data, "CHECK_RECORDS", per_check)
            if want is not None:
                with pytest.raises(DatasetError) as info:
                    save_dataset(path, meta, samples)
                assert str(info.value) == f"sample {want[0]}: {want[1]}" and not path.exists()
                return
            save_dataset(path, meta, samples)
        loaded = [(arr.shape, arr.dtype, arr.tobytes()) for s in load_dataset(path)[1]
                  for arr in vars(s).values()]
        expected = [np.asarray(getattr(s, key), np.float64).reshape(shape)
                    for s in samples for key, shape in shapes.items()]
        assert loaded == [(arr.shape, arr.dtype, arr.tobytes()) for arr in expected]


class TestSplit:
    def test_exact_partition(self):
        _, samples = synth_generate(small_config(), 40)
        train, val, test = split_samples(samples, (20, 8, 12), seed=0)
        assert len(train) == 20 and len(val) == 8 and len(test) == 12
        seen = {id(s) for s in train + val + test}
        assert len(seen) == 40

    def test_seeded_reproducible(self):
        _, samples = synth_generate(small_config(), 30)
        a = split_samples(samples, (10, 5, 15), seed=3)
        b = split_samples(samples, (10, 5, 15), seed=3)
        for part_a, part_b in zip(a, b):
            assert [id(s) for s in part_a] == [id(s) for s in part_b]

    def test_oversized_request_rejected(self):
        _, samples = synth_generate(small_config(), 10)
        with pytest.raises(ValueError, match="split sizes"):
            split_samples(samples, (8, 2, 1), seed=0)


def _lag_path(ctx: np.ndarray, lag: float) -> np.ndarray:
    path = np.empty_like(ctx)
    path[0] = ctx[0]
    for t in range(1, ctx.shape[0]):
        path[t] = path[t - 1] + lag * (ctx[t] - path[t - 1])
    return path


def synth_reference(config: SynthConfig, n: int) -> tuple[DatasetMeta, list[Sample]]:
    """The generator one sample and one step at a time: the oracle of
    synth_generate, which runs the same arithmetic over blocks of samples."""
    if n < 0:
        raise ValueError(f"sample count n must be >= 0, got {n}")
    rng = make_rng(config.seed)
    steps, tau = config.total_steps, config.tau
    horizon = steps - tau
    eff_threshold = np.asarray(config.thresholds) * np.asarray(config.rarity)
    channel = np.arange(config.n_labels) % config.d_ctx
    lo, hi = config.persistence

    samples = []
    for _ in range(n):
        change = rng.uniform(size=(steps, config.d_ctx)) < CHANGE_PROB
        levels = rng.normal(0.0, LEVEL_SD, size=(steps, config.d_ctx))
        noise = rng.normal(0.0, 1.0, size=(tau, config.d_obs))
        durations = rng.integers(lo, hi + 1, size=(steps, config.n_labels))

        ctx = np.empty((steps, config.d_ctx))
        ctx[0] = levels[0]
        for t in range(1, steps):
            ctx[t] = np.where(change[t], levels[t], ctx[t - 1])

        path = _lag_path(ctx, config.lag)
        obs = path[:tau, np.arange(config.d_obs) % config.d_ctx]
        obs = obs + config.noise_scale * noise

        jump = np.maximum(np.diff(ctx, axis=0, prepend=ctx[:1]), 0.0)
        dev = np.maximum(ctx - path, 0.0)
        stat = jump[:, channel] + DEV_GAIN * dev[:, channel]

        step_labels = np.zeros((horizon, config.n_labels))
        for t in range(tau, steps):
            fired = stat[t] > eff_threshold
            for l in np.nonzero(fired)[0]:
                end = min(t + int(durations[t, l]), steps)
                step_labels[t - tau : end - tau, l] = 1.0
        samples.append(Sample(obs, ctx, segment_labels(step_labels), step_labels))

    meta = DatasetMeta(
        ModelDims(config.n_labels, config.d_obs, config.d_ctx, tau, steps),
        label_names=tuple(f"fault_{l + 1}" for l in range(config.n_labels)),
        source="synthetic",
    )
    return meta, samples


class TestGenerator:
    @settings(max_examples=30, deadline=None)
    @given(n=st.sampled_from((0, 1, 63, 64, 65, 130)), tau=st.integers(0, 5),
           horizon=st.integers(1, 6), n_labels=st.integers(1, 5), d_obs=st.integers(0, 3),
           d_ctx=st.integers(1, 7), threshold=st.floats(0.02, 1.0),
           persistence=st.sampled_from(((1, 1), (2, 4), (3, 3), (1, 40), (1, 10**9))),
           lag=st.floats(0.05, 0.95), noise_scale=st.sampled_from((0.0, 0.05, 2.0)),
           seed=st.integers(0, 2**40))
    @example(n=130, tau=0, horizon=5, n_labels=2, d_obs=0, d_ctx=5, threshold=0.1,
             persistence=(1, 10**9), lag=0.4, noise_scale=0.05, seed=3)
    def test_equals_the_per_sample_reference(self, n, tau, horizon, n_labels, d_obs, d_ctx,
                                             threshold, persistence, lag, noise_scale, seed):
        config = SynthConfig(tau=tau, total_steps=tau + horizon, n_labels=n_labels,
                             d_obs=d_obs, d_ctx=d_ctx, thresholds=(threshold,) * n_labels,
                             persistence=persistence, lag=lag, noise_scale=noise_scale,
                             seed=seed)
        meta, samples = synth_generate(config, n)
        ref_meta, ref_samples = synth_reference(config, n)
        assert meta == ref_meta and len(samples) == len(ref_samples) == n
        for sample, ref in zip(samples, ref_samples):
            for key in RECORD_KEYS:
                got, want = getattr(sample, key), getattr(ref, key)
                assert (got.dtype, got.shape) == (want.dtype, want.shape), key
                assert got.tobytes() == want.tobytes(), key

    def test_deterministic(self):
        a_meta, a = synth_generate(small_config(), 6)
        b_meta, b = synth_generate(small_config(), 6)
        assert a_meta == b_meta
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.obs, sb.obs)
            np.testing.assert_array_equal(sa.ctx, sb.ctx)
            np.testing.assert_array_equal(sa.step_labels, sb.step_labels)

    def test_noise_free_run_deterministic(self):
        cfg = small_config(noise_scale=0.0)
        a = synth_generate(cfg, 4)[1]
        b = synth_generate(cfg, 4)[1]
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.obs, sb.obs)

    def test_consistency_identity_holds(self):
        _, samples = synth_generate(small_config(), 50)
        for s in samples:
            derived = (s.step_labels.sum(axis=0) > 0).astype(float)
            np.testing.assert_array_equal(derived, s.labels)

    def test_raising_threshold_never_raises_frequency(self):
        base_cfg = small_config()
        _, base = synth_generate(base_cfg, 120)
        base_counts = class_stats(base)
        for l in range(base_cfg.n_labels):
            thresholds = list(base_cfg.thresholds)
            thresholds[l] *= 1.7
            _, bumped = synth_generate(
                replace(base_cfg, thresholds=tuple(thresholds)), 120
            )
            bumped_counts = class_stats(bumped)
            assert bumped_counts[l] <= base_counts[l]
            others = [k for k in range(base_cfg.n_labels) if k != l]
            np.testing.assert_array_equal(bumped_counts[others], base_counts[others])

    def test_bounded_magnitudes(self):
        _, samples = synth_generate(small_config(), 40)
        for s in samples:
            assert np.all(np.abs(s.ctx) < 10.0)
            assert np.all(np.abs(s.obs) < 10.0)

    def test_default_config_label_spread(self):
        # regression fixture for the committed default generator
        _, samples = synth_generate(DEFAULT_SYNTH_CONFIG, 600)
        counts = class_stats(samples)
        assert np.all(counts >= 1)
        assert counts.max() >= 10 * counts.min()

    def test_invalid_configs(self):
        with pytest.raises(ValueError, match="lag"):
            small_config(lag=1.5)
        with pytest.raises(ValueError, match="persistence"):
            small_config(persistence=(0, 3))
        with pytest.raises(ValueError, match="entry per label"):
            small_config(thresholds=(1.0,))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
    def test_noise_scale_must_be_finite_and_non_negative(self, value):
        with pytest.raises(ValueError, match=f"noise_scale must be finite and >= 0, got {value}"):
            small_config(noise_scale=value)
        assert small_config(noise_scale=0.0).noise_scale == 0.0

    def test_negative_sample_count_rejected(self):
        assert synth_generate(small_config(), 0)[1] == []
        with pytest.raises(ValueError, match="n must be >= 0, got -5"):
            synth_generate(small_config(), -5)


class TestClassStats:
    def test_all_healthy(self):
        meta, samples = synth_generate(small_config(), 4)
        for s in samples:
            s.labels[:] = 0.0
            s.step_labels[:] = 0.0
        np.testing.assert_array_equal(class_stats(samples),
                                      np.zeros(meta.dims.n_labels, dtype=int))

    def test_hand_counted(self):
        _, samples = synth_generate(small_config(), 3)
        for s in samples:
            s.labels[:] = 0.0
            s.step_labels[:] = 0.0
        samples[0].labels[0] = 1.0
        samples[0].step_labels[0, 0] = 1.0
        samples[2].labels[0] = 1.0
        samples[2].step_labels[1, 0] = 1.0
        samples[2].labels[3] = 1.0
        samples[2].step_labels[0, 3] = 1.0
        np.testing.assert_array_equal(class_stats(samples), [2, 0, 0, 1])

    def test_counts_bounded_by_n(self):
        _, samples = synth_generate(small_config(), 25)
        assert np.all(class_stats(samples) <= 25)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            class_stats([])


class TestMeta:
    def test_invalid_meta(self):
        with pytest.raises(DatasetError):
            DatasetMeta(ModelDims(2, 1, 1, 5, 5), ("a", "b"))
        with pytest.raises(DatasetError):
            DatasetMeta(ModelDims(2, 1, 1, 2, 5), ("a",))
        with pytest.raises(DatasetError):
            DatasetMeta(ModelDims(2, 1, 1, 2, 5), ("a", "b"), source="nowhere")

    @pytest.mark.parametrize("field", ["d_obs", "d_ctx"])
    def test_negative_feature_dims_rejected(self, field):
        # zero-width inputs are allowed
        dims = dict(n_labels=2, d_obs=0, d_ctx=0, tau=2, total_steps=5)
        DatasetMeta(ModelDims(**dims), ("a", "b"))
        with pytest.raises(DatasetError, match=f"{field}=-3"):
            ModelDims(**{**dims, field: -3})

    def test_negative_feature_dim_in_header_names_file(self, tmp_path):
        meta, samples = synth_generate(small_config(), 2)
        path = tmp_path / "data.jsonl"
        save_dataset(path, meta, samples)
        header, *rest = path.read_text().splitlines()
        doc = json.loads(header)
        doc["d_obs"] = -3
        path.write_text("\n".join([json.dumps(doc), *rest]) + "\n")
        with pytest.raises(DatasetError) as info:
            load_dataset(path)
        assert str(path) in str(info.value) and "d_obs=-3" in str(info.value)

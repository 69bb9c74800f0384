"""How ``load_corpus`` finds a corpus's notes, pinned against
``reference_load_corpus``, which finds them with ``Path.rglob``: the same
doc_ids in the same insertion order, the same metadata and the same error
text, on trees of edge cases and on random trees."""

import os
import random

import pytest

from oracles import reference_load_corpus
from slotscore.standoff import StandoffError, load_corpus

NOTE = "cocaine use"
ANN = "T1\tDrug 0 7\tcocaine\n"


def _file(path, text=NOTE):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _outcome(load, directory, **kwargs):
    """``("ok", [document, ...])`` in insertion order, or ``("error", text)``."""
    try:
        corpus = load(directory, **kwargs)
    except StandoffError as exc:
        return "error", str(exc)
    return "ok", list(corpus)


def _nested(root):
    # Path order compares part by part: a/b.txt comes before a-c.txt and
    # a.txt, although "/" sorts after "-" and "." in a plain string.
    _file(root / "a" / "b.txt")
    _file(root / "a-c.txt")
    _file(root / "a.txt")
    _file(root / "a.ann", ANN)
    _file(root / "uw" / "train" / "n1.txt")
    _file(root / "uw" / "train" / "n1.ann", ANN)
    _file(root / "mimic" / "dev" / "deep" / "n2.txt", "\ufeffcocaine use\r\n")
    _file(root / "z" / "m.txt")
    manifest = root.parent / "manifest.tsv"
    manifest.write_text("a/\tuw\ttest\nz\tmimic\ttrain\n", encoding="utf-8")
    return {"manifest": manifest}


def _same_stem_beside_a_dashed_directory(root):
    _file(root / "a" / "x.txt")
    _file(root / "a-c" / "x.txt")


def _dotted_names(root):
    _file(root / "a.b.txt")
    _file(root / "a.b.ann", ANN)
    # A name that is only the suffix has no doc_id: ".txt" is not a note and
    # ".ann" not an annotation file. ".ann.txt" is the note ".ann".
    _file(root / ".txt")
    _file(root / ".ann.txt")
    _file(root / ".ann", "not an annotation line\n")
    # Names are matched case-sensitively.
    for name in (".TXT", "x.TXT", "y.Txt", "X.ANN", "notes.txt.bak"):
        _file(root / name, "not an annotation line\n")


def _dot_txt_annotated(root):
    # ".txt" is no note, and ".txt.ann" belongs to the missing ".txt.txt".
    _file(root / ".txt")
    _file(root / ".txt.ann", ANN)


def _directory_named_txt_holding_a_stray_ann(root):
    _file(root / "x.txt" / "n1.txt")
    _file(root / "x.txt" / "q.ann", ANN)


def _directory_named_txt(root):
    _file(root / "x.txt" / "n1.txt")


def _directory_named_ann(root):
    _file(root / "y.txt")
    (root / "y.ann").mkdir()


def _stray_directory_named_ann(root):
    _file(root / "n1.txt")
    (root / "z.ann").mkdir()


def _symlinked_directory(root):
    _file(root / "real" / "n1.txt")
    _file(root / "real" / "n1.ann", ANN)
    (root / "link").symlink_to("real", target_is_directory=True)


def _symlinked_note(root):
    _file(root / "real" / "n1.txt")
    _file(root / "real" / "n1.ann", ANN)
    (root / "n2.txt").symlink_to(os.path.join("real", "n1.txt"))
    (root / "n2.ann").symlink_to(os.path.join("real", "n1.ann"))


def _dangling_ann(root):
    _file(root / "n1.txt")
    (root / "n1.ann").symlink_to("missing.ann")


def _looping_ann(root):
    _file(root / "n2.txt")
    (root / "n2.ann").symlink_to("n2.ann")


def _dangling_txt_beside_ann(root):
    _file(root / "n1.ann", ANN)
    (root / "n1.txt").symlink_to("missing.txt")


def _dangling_txt(root):
    (root / "n1.txt").symlink_to("missing.txt")


def _non_ascii_names(root):
    for name in ("é.txt", "e\u0301.txt", "Z.txt", "a.txt", "日本.txt"):
        _file(root / name)
    _file(root / "uw" / "ß.txt")
    _file(root / "uw" / "ß.ann", ANN)
    with open(os.path.join(os.fsencode(root), b"\xff.txt"), "wb") as f:
        f.write(NOTE.encode("utf-8"))


# case -> (builder, doc_ids with their source/split in insertion order, or the
# error text with {root} for the corpus directory)
CASES = {
    "nested": (_nested, [
        ("b", "uw/test"), ("a-c", "other/unknown"), ("a", "other/unknown"),
        ("n2", "mimic/dev"), ("n1", "uw/train"), ("m", "mimic/train"),
    ]),
    "same-stem-beside-a-dashed-directory": (
        _same_stem_beside_a_dashed_directory,
        "{root}: duplicate doc_id 'x': a/x.txt and a-c/x.txt",
    ),
    "dotted-names": (_dotted_names, [(".ann", "other/unknown"), ("a.b", "other/unknown")]),
    "dot-txt-annotated": (
        _dot_txt_annotated, "{root}: 1 annotation file without note text: .txt.ann"
    ),
    "directory-named-txt-holding-a-stray-ann": (
        _directory_named_txt_holding_a_stray_ann,
        "{root}: 1 annotation file without note text: x.txt/q.ann",
    ),
    "directory-named-txt": (_directory_named_txt, [("n1", "other/unknown")]),
    "directory-named-ann": (_directory_named_ann, [("y", "other/unknown")]),
    "stray-directory-named-ann": (_stray_directory_named_ann, [("n1", "other/unknown")]),
    "symlinked-directory": (_symlinked_directory, [("n1", "other/unknown")]),
    "symlinked-note": (_symlinked_note, [("n2", "other/unknown"), ("n1", "other/unknown")]),
    "dangling-ann": (
        _dangling_ann,
        "<input>: cannot read {root}/n1.ann: [Errno 2] No such file or directory: '{root}/n1.ann'",
    ),
    "looping-ann": (
        _looping_ann,
        "<input>: cannot read {root}/n2.ann: [Errno 40] Too many levels of symbolic links: "
        "'{root}/n2.ann'",
    ),
    "dangling-txt-beside-ann": (
        _dangling_txt_beside_ann,
        "<input>: cannot read {root}/n1.txt: [Errno 2] No such file or directory: '{root}/n1.txt'",
    ),
    "dangling-txt": (
        _dangling_txt,
        "<input>: cannot read {root}/n1.txt: [Errno 2] No such file or directory: '{root}/n1.txt'",
    ),
    "non-ascii-names": (_non_ascii_names, [
        ("Z", "other/unknown"), ("a", "other/unknown"), ("e\u0301", "other/unknown"),
        ("ß", "uw/unknown"), ("é", "other/unknown"), ("日本", "other/unknown"),
        ("\udcff", "other/unknown"),
    ]),
}


@pytest.mark.parametrize("case", CASES)
def test_load_corpus_finds_notes_as_the_pathlib_reference(tmp_path, case):
    build, expected = CASES[case]
    root = tmp_path / "corpus"
    root.mkdir()
    kwargs = build(root) or {}
    outcome = _outcome(load_corpus, root, **kwargs)
    assert outcome == _outcome(reference_load_corpus, root, **kwargs)
    if isinstance(expected, str):
        assert outcome == ("error", expected.format(root=root))
    else:
        assert outcome[0] == "ok"
        assert [
            (doc.doc_id, f"{doc.metadata.source}/{doc.metadata.split}") for doc in outcome[1]
        ] == expected


def test_pinned_trees_keep_their_annotations(tmp_path):
    """Which notes found an annotation file, in the cases that load."""
    annotated = {}
    for case, (build, expected) in CASES.items():
        if isinstance(expected, str):
            continue
        root = tmp_path / case
        root.mkdir()
        corpus = load_corpus(root, **(build(root) or {}))
        annotated[case] = sorted(doc.doc_id for doc in corpus if doc.text_bounds)
    assert annotated == {
        "nested": ["a", "n1"],
        "dotted-names": ["a.b"],
        "directory-named-txt": [],
        "directory-named-ann": [],
        "stray-directory-named-ann": [],
        "symlinked-directory": ["n1"],
        "symlinked-note": ["n1", "n2"],
        "non-ascii-names": ["ß"],
    }
    nested = load_corpus(tmp_path / "nested")
    assert nested["n2"].text[0] == "\ufeff" and nested["n2"].text.endswith("\r\n")


@pytest.mark.parametrize("spelling, locked, shown", [
    ("corpus", "locked", "corpus/locked"),
    ("./corpus//", "deep", "corpus/locked/deep"),
    (".", "locked", "locked"),
    ("corpus", "corpus", "corpus"),  # the root itself
])
def test_unlistable_directory_is_an_error(tmp_path, monkeypatch, refuse_listing, spelling,
                                          locked, shown):
    # Skipping it would score a gold corpus on fewer notes, without a word.
    root = tmp_path / "corpus"
    _file(root / "locked" / "n9.txt")
    _file(root / "locked" / "n9.ann", ANN)
    _file(root / "locked" / "deep" / "n8.txt")
    _file(root / "n1.txt")
    monkeypatch.chdir(root if spelling == "." else tmp_path)
    refuse_listing(locked)
    outcome = _outcome(load_corpus, spelling)
    assert outcome == _outcome(reference_load_corpus, spelling)
    assert outcome == ("error", f"<input>: cannot list {shown}: [Errno 13] Permission denied")


@pytest.mark.parametrize("spelling", ["corpus", "corpus/", "./corpus//", "."])
def test_read_errors_name_the_path_as_given(tmp_path, monkeypatch, spelling):
    root = tmp_path / "corpus"
    _file(root / "a" / "n1.txt")
    (root / "x.txt").symlink_to("missing.txt")
    monkeypatch.chdir(root if spelling == "." else tmp_path)
    shown = "x.txt" if spelling == "." else "corpus/x.txt"
    outcome = _outcome(load_corpus, spelling)
    assert outcome == _outcome(reference_load_corpus, spelling)
    message = f"<input>: cannot read {shown}: [Errno 2] No such file or directory: '{shown}'"
    assert outcome == ("error", message)


def _invalid_utf8(tail: bytes) -> bytes:
    # Past the first 8 KiB, where a reader that decodes in chunks would count
    # positions from the start of the chunk, not of the file.
    return b"x" * 9000 + tail


@pytest.mark.parametrize(
    "name, tail, reason",
    [
        ("n1.txt", b"\xff", "can't decode byte 0xff in position 9000: invalid start byte"),
        ("n1.ann", b"\xff", "can't decode byte 0xff in position 9000: invalid start byte"),
        ("n1.ann", b"\xe2\x82", "can't decode bytes in position 9000-9001: unexpected end of data"),
    ],
)
def test_undecodable_file_names_file_and_position(tmp_path, name, tail, reason):
    _file(tmp_path / "n1.txt", "x" * 9010)
    (tmp_path / name).write_bytes(_invalid_utf8(tail))
    outcome = _outcome(load_corpus, tmp_path)
    assert outcome == _outcome(reference_load_corpus, tmp_path)
    assert outcome == (
        "error", f"<input>: cannot read {tmp_path / name}: 'utf-8' codec {reason}")


def _random_tree(root, rng):
    stems = ["a", "a-c", "a.b", "b", "-", ".", "", "é", "A", "x.txt"]
    suffixes = [".txt", ".txt", ".txt", ".ann", ".TXT", ""]
    for _ in range(rng.randint(1, 9)):
        parts = [rng.choice(stems) for _ in range(rng.randint(0, 2))]
        name = rng.choice(stems) + rng.choice(suffixes)
        path = root.joinpath(*parts, name)
        if os.path.lexists(path) or any(
            os.path.lexists(p) and not p.is_dir() for p in path.parents
        ):
            continue
        if rng.random() < 0.2:  # a dangling symlink: its read is an error
            path.parent.mkdir(parents=True, exist_ok=True)
            path.symlink_to("missing")
        elif name.endswith(".ann"):
            _file(path, "" if rng.random() < 0.5 else ANN)
        else:
            _file(path, NOTE)


ERRORS = ("duplicate doc_id", "without note text", "cannot read")


@pytest.mark.parametrize("seed", range(4))
def test_random_trees_load_as_the_pathlib_reference(tmp_path, seed):
    rng = random.Random(seed)
    kinds = set()
    for n in range(50):
        root = tmp_path / str(n)
        root.mkdir()
        _random_tree(root, rng)
        outcome = _outcome(load_corpus, root)
        assert outcome == _outcome(reference_load_corpus, root), n
        kinds.add("ok" if outcome[0] == "ok" else next(k for k in ERRORS if k in outcome[1]))
    assert kinds == {"ok", *ERRORS}

import os
import random
from pathlib import Path

import pytest

from conftest import copy_paste_mutate
from twgi.cli import main
from twgi.persist import SECTIONS, serialize_index
from twgi.text_index import build_index


@pytest.fixture
def workdir(tmp_path):
    text = tmp_path / "t.txt"
    text.write_bytes(b"abcabc")
    index = tmp_path / "t.twgi"
    rc = main(["build", str(text), "-o", str(index)])
    assert rc == 0
    return tmp_path, str(text), str(index)


def test_build_prints_summary(tmp_path, capsys):
    text = tmp_path / "t.txt"
    text.write_bytes(b"abcabc")
    rc = main(["build", str(text), "-o", str(tmp_path / "x.twgi")])
    out = capsys.readouterr().out
    assert rc == 0
    lines = dict(line.split(": ") for line in out.strip().splitlines())
    assert lines["n"] == "7"
    assert lines["n_t"] == "5"
    assert lines["m_t"] == "5"
    assert lines["tunnels"] == "1"
    assert lines["merged_edges"] == "1"


BUILD_FLAGS = {
    "--sample-rate": ("sample_rate_n", 3),
    "--tunnel-rate": ("sample_rate_t", 2),
    "--min-width": ("min_width", 3),
    "--min-length": ("min_length", 1),
}


@pytest.mark.parametrize("flags", [[f] for f in sorted(BUILD_FLAGS)] + [sorted(BUILD_FLAGS)])
def test_build_flags_reach_the_index(tmp_path, flags):
    data = copy_paste_mutate(random.Random(2), 600, 4)
    text = tmp_path / "t.txt"
    text.write_bytes(data)
    argv = ["build", str(text), "-o", str(tmp_path / "x.twgi")]
    for flag in flags:
        argv += [flag, str(BUILD_FLAGS[flag][1])]
    assert main(argv) == 0
    assert main(["build", str(text), "-o", str(tmp_path / "default.twgi")]) == 0
    got = (tmp_path / "x.twgi").read_bytes()
    assert got == serialize_index(build_index(data, **dict(BUILD_FLAGS[f] for f in flags)))
    assert got != (tmp_path / "default.twgi").read_bytes()


def test_count(workdir, capsys):
    _, _, index = workdir
    rc = main(["count", index, "abc"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "2"


def test_count_absent_is_zero_success(workdir, capsys):
    _, _, index = workdir
    rc = main(["count", index, "zzz"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "0"


def test_locate(workdir, capsys):
    _, _, index = workdir
    rc = main(["locate", index, "abc"])
    assert rc == 0
    assert capsys.readouterr().out.split() == ["1", "4"]


def test_locate_absent_empty_success(workdir, capsys):
    _, _, index = workdir
    rc = main(["locate", index, "zzz"])
    assert rc == 0
    assert capsys.readouterr().out == ""


def test_locate_empty_pattern_usage_error(workdir):
    _, _, index = workdir
    assert main(["locate", index, ""]) == 2


def test_locate_limit(workdir, capsys):
    _, _, index = workdir
    rc = main(["locate", index, "c", "--limit", "1"])
    assert rc == 0
    assert len(capsys.readouterr().out.split()) == 1


def test_locate_limit_zero_and_negative(workdir, capsys):
    _, _, index = workdir
    assert main(["locate", index, "c", "--limit", "0"]) == 0
    assert capsys.readouterr().out == ""
    assert main(["locate", index, "c", "--limit", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_extract(workdir, capsys):
    _, _, index = workdir
    rc = main(["extract", index, "2", "3"])
    assert rc == 0
    assert capsys.readouterr().out == "bca"


def test_extract_out_of_range(workdir, capsys):
    _, _, index = workdir
    assert main(["extract", index, "6", "3"]) == 1


def test_stats(workdir, capsys):
    _, _, index = workdir
    rc = main(["stats", index])
    assert rc == 0
    out = capsys.readouterr().out
    keys = [line.split(":")[0] for line in out.strip().splitlines()]
    sections = [f"bits.{name}" for name in (*SECTIONS, "framing")]
    assert keys == ["n", "n_t", "sigma", "tunnels", "bits_per_symbol", *sections]
    bits = [int(line.split(":")[1]) for line in out.strip().splitlines()[5:]]
    assert sum(bits) == 8 * os.path.getsize(index)


def test_usage_error_exit_2():
    assert main(["count"]) == 2
    assert main(["bogus"]) == 2


def test_missing_file_exit_1(tmp_path, capsys):
    assert main(["count", str(tmp_path / "nope.twgi"), "a"]) == 1


def test_corrupted_index_exit_1(workdir, capsys):
    _, _, index = workdir
    data = bytearray(Path(index).read_bytes())
    data[len(data) // 2] ^= 1
    Path(index).write_bytes(bytes(data))
    assert main(["count", index, "abc"]) == 1


GRAPH = "WG 7 6 3\n1 2 a\n2 4 b\n3 5 b\n4 6 c\n5 7 c\n6 3 a\n"
BAD_GRAPH = "WG 2 1 1\n2 1 a\n"
BLOCKS = "BLOCK 2 2\n2 3\n4 5\n"


def test_graph_validate_ok(tmp_path, capsys):
    gf = tmp_path / "g.wg"
    gf.write_text(GRAPH)
    rc = main(["graph", "validate", str(gf)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "OK"


def test_graph_validate_violation(tmp_path, capsys):
    gf = tmp_path / "bad.wg"
    gf.write_text(BAD_GRAPH)
    rc = main(["graph", "validate", str(gf)])
    assert rc == 1
    assert "zero-indegree-prefix" in capsys.readouterr().out


def test_graph_tunnel_and_search(tmp_path, capsys):
    gf = tmp_path / "g.wg"
    gf.write_text(GRAPH)
    bf = tmp_path / "b.blk"
    bf.write_text(BLOCKS)
    out = tmp_path / "out.wg"
    rc = main(["graph", "tunnel", str(gf), "--blocks", str(bf), "-o", str(out)])
    assert rc == 0
    capsys.readouterr()

    # tunneled output re-validates
    rc = main(["graph", "validate", str(out)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "OK"

    rc = main(["graph", "search", str(out), "bca"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("FOUND")

    rc = main(["graph", "search", str(out), "cc"])
    assert rc == 1
    assert capsys.readouterr().out.strip() == "NOT FOUND"


def test_graph_search_without_exit_copies_exit_1(tmp_path, capsys):
    gf = tmp_path / "g.wg"
    gf.write_text(GRAPH)
    bf = tmp_path / "b.blk"
    bf.write_text(BLOCKS)
    out = tmp_path / "out.wg"
    assert main(["graph", "tunnel", str(gf), "--blocks", str(bf), "-o", str(out)]) == 0
    lines = out.read_text().splitlines(keepends=True)
    kept = [line for line in lines if not line.startswith("#! exitcopy")]
    assert len(kept) == len(lines) - 1
    out.write_text("".join(kept))
    capsys.readouterr()
    assert main(["graph", "search", str(out), "bca"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_graph_search_inner_marked_entrance_exit_1(tmp_path, capsys):
    gf = tmp_path / "g.wg"
    gf.write_text(GRAPH)
    bf = tmp_path / "b.blk"
    bf.write_text(BLOCKS)
    out = tmp_path / "out.wg"
    assert main(["graph", "tunnel", str(gf), "--blocks", str(bf), "-o", str(out)]) == 0
    lines = out.read_text().splitlines(keepends=True)
    (entrance,) = [line.split()[2] for line in lines if line.startswith("#! entrance")]
    marked = [line.rstrip("\n") + f" {entrance}\n" if line.startswith("#! inner") else line
              for line in lines]
    assert marked != lines
    out.write_text("".join(marked))
    capsys.readouterr()
    assert main(["graph", "search", str(out), "bca"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "inner-marked" in captured.err
    assert captured.out == ""


def test_graph_search_disagreeing_orig_n_exit_1(tmp_path, capsys):
    gf = tmp_path / "g.wg"
    gf.write_text(GRAPH)
    bf = tmp_path / "b.blk"
    bf.write_text(BLOCKS)
    out = tmp_path / "out.wg"
    assert main(["graph", "tunnel", str(gf), "--blocks", str(bf), "-o", str(out)]) == 0
    text = out.read_text()
    assert "#! orig-n 7\n" in text
    out.write_text(text.replace("#! orig-n 7\n", "#! orig-n 999\n"))
    capsys.readouterr()
    assert main(["graph", "search", str(out), "bca"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "orig-n" in captured.err
    assert captured.out == ""


def test_graph_search_plain_file(tmp_path, capsys):
    gf = tmp_path / "g.wg"
    gf.write_text(GRAPH)
    rc = main(["graph", "search", str(gf), "abca"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("FOUND")


def test_graph_tunnel_bad_blocks_exit_1(tmp_path, capsys):
    gf = tmp_path / "g.wg"
    gf.write_text(GRAPH)
    bf = tmp_path / "b.blk"
    bf.write_text("BLOCK 2 1\n1 2\n")
    rc = main(["graph", "tunnel", str(gf), "--blocks", str(bf),
               "-o", str(tmp_path / "o.wg")])
    assert rc == 1


# GRAPH with one line, number, field count or label token malformed
MALFORMED_GRAPHS = {
    "header number": GRAPH.replace("WG 7 6 3", "WG 7 x 3"),
    "header word": GRAPH.replace("WG 7 6 3", "GW 7 6 3"),
    "header fields": GRAPH.replace("WG 7 6 3", "WG 7 6"),
    "no header": "# a comment and no graph\n",
    "edge number": GRAPH.replace("1 2 a", "1 x a"),
    "edge fields": GRAPH.replace("1 2 a", "1 2 a b"),
    "label token": GRAPH.replace("1 2 a", "1 2 \\xzz"),
    "label above a byte": GRAPH.replace("1 2 a", "1 2 \u0100"),
    "unknown meta key": GRAPH.replace("\n", "\n#! bogus 1\n", 1),
    "orig-n without a value": GRAPH.replace("\n", "\n#! orig-n\n", 1),
    "tunnel with two fields": GRAPH.replace("\n", "\n#! tunnel 1 2\n", 1),
    "exitcopy without a colon": GRAPH.replace("\n", "\n#! exitcopy 5\n", 1),
}
MALFORMED_BLOCKS = {
    "size": "BLOCK 2 x\n",
    "header fields": "BLOCK 2\n",
    "column number": "BLOCK 2 1\n2 y\n",
    "column before any BLOCK": "2 3\nBLOCK 2 1\n2 3\n",
}


@pytest.mark.parametrize("name", sorted(MALFORMED_GRAPHS))
def test_malformed_graph_file_exit_1(tmp_path, capsys, name):
    gf = tmp_path / "g.wg"
    gf.write_text(MALFORMED_GRAPHS[name])
    assert main(["graph", "search", str(gf), "a"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("name", sorted(MALFORMED_BLOCKS))
def test_malformed_blocks_file_exit_1(tmp_path, capsys, name):
    gf = tmp_path / "g.wg"
    gf.write_text(GRAPH)
    bf = tmp_path / "b.blk"
    bf.write_text(MALFORMED_BLOCKS[name])
    rc = main(["graph", "tunnel", str(gf), "--blocks", str(bf),
               "-o", str(tmp_path / "o.wg")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_no_tunnel_build_queries_match(tmp_path, capsys):
    text = tmp_path / "t.txt"
    text.write_bytes(b"abcabcabc")
    plain = tmp_path / "plain.twgi"
    tun = tmp_path / "tun.twgi"
    assert main(["build", str(text), "-o", str(tun)]) == 0
    assert main(["build", str(text), "-o", str(plain), "--no-tunnel"]) == 0
    capsys.readouterr()
    for pat in ("abc", "ca", "cc", "abcabcabc"):
        main(["count", str(tun), pat])
        a = capsys.readouterr().out
        main(["count", str(plain), pat])
        b = capsys.readouterr().out
        assert a == b


def test_escaped_pattern(tmp_path, capsys):
    text = tmp_path / "t.bin"
    text.write_bytes(bytes([0, 1, 0, 1, 0]))
    index = tmp_path / "t.twgi"
    assert main(["build", str(text), "-o", str(index)]) == 0
    capsys.readouterr()
    rc = main(["count", str(index), "\\x00\\x01"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "2"


def test_bad_escape_in_pattern_exit_1(workdir, capsys):
    _, _, index = workdir
    assert main(["count", index, "\\xzz"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_pattern_character_above_a_byte_exit_1(workdir, capsys):
    _, _, index = workdir
    assert main(["count", index, "a\u0100"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "is not a byte" in captured.err

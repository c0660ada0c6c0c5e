import os
import random
from pathlib import Path

import pytest

from conftest import copy_paste_mutate
from twgi import cli
from twgi.cli import main
from twgi.persist import SECTIONS, load_index, serialize_index
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


@pytest.mark.parametrize("tunnel", [True, False])
def test_build_makes_no_query_table(tmp_path, capsys, monkeypatch, tunnel):
    # the summary reads the index and its graph: the k-gram, hop and extract
    # tables stay unmade, and the lines are what stats() reports
    built = []

    def build(*args, **kw):
        built.append(build_index(*args, **kw))
        return built[-1]

    monkeypatch.setattr(cli, "build_index", build)
    text = tmp_path / "t.txt"
    text.write_bytes(copy_paste_mutate(random.Random(2), 600, 4))
    flags = [] if tunnel else ["--no-tunnel"]
    assert main(["build", str(text), "-o", str(tmp_path / "x.twgi"), *flags]) == 0
    (ix,) = built
    assert not {"_kgrams", "_hops", "_start_table", "_extract_tables"} & vars(ix).keys()
    st = ix.stats()
    assert (st["tunnels"] > 0) == tunnel
    assert capsys.readouterr().out.splitlines() == [
        *(f"{key}: {st[key]}" for key in ("n", "n_t", "m_t", "tunnels")),
        f"merged_edges: {st['n'] - 1 - st['m_t']}"]


# build arguments -> the build_index keywords they give: each flag alone,
# the locate samples at every run element and at the first and last only,
# then every flag together
BUILD_ARGS = [
    (["--no-tunnel"], dict(tunneling=False)),
    (["--sample-rate", "3"], dict(sample_rate_n=3)),
    (["--sample-rate", "1"], dict(sample_rate_n=1)),
    (["--sample-rate", "601"], dict(sample_rate_n=601)),
    (["--no-tunnel", "--sample-rate", "3"], dict(sample_rate_n=3, tunneling=False)),
]


@pytest.mark.parametrize("flags", BUILD_ARGS)
def test_build_flags_reach_the_index(tmp_path, flags):
    args, kw = flags
    data = copy_paste_mutate(random.Random(2), 600, 4)
    text = tmp_path / "t.txt"
    text.write_bytes(data)
    assert main(["build", str(text), "-o", str(tmp_path / "x.twgi"), *args]) == 0
    assert main(["build", str(text), "-o", str(tmp_path / "default.twgi")]) == 0
    got = (tmp_path / "x.twgi").read_bytes()
    assert got == serialize_index(build_index(data, **kw))
    assert got != (tmp_path / "default.twgi").read_bytes()


def test_tunnel_rate_is_a_usage_error(tmp_path, capsys):
    # the skip stride is ceil(log2 n_t): no file stores the pointers it spaced
    text = tmp_path / "t.txt"
    text.write_bytes(b"abcabc")
    assert main(["build", str(text), "-o", str(tmp_path / "x.twgi"), "--tunnel-rate", "2"]) == 2
    assert "--tunnel-rate" in capsys.readouterr().err
    assert not (tmp_path / "x.twgi").exists()


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
    assert keys == ["n", "n_t", "sigma", "tunnels", "bits_per_symbol", *sections,
                    "kgram_k", "kgram_keys", "kgram_bytes", "hops_per_round", "hop_bytes",
                    "start_bytes", "extract_bytes"]
    bits = [int(line.split(":")[1]) for line in out.strip().splitlines()[5:-7]]
    assert sum(bits) == 8 * os.path.getsize(index)


@pytest.mark.parametrize("tunnel", [True, False])
def test_stats_reports_the_kgram_table(tmp_path, capsys, tunnel):
    # the table of every k-gram's search state: k, one key per distinct
    # k-gram of the text, and the bytes the two arrays hold
    data = copy_paste_mutate(random.Random(4), 2048, 4)
    text, index = tmp_path / "t.txt", tmp_path / "t.twgi"
    text.write_bytes(data)
    assert main(["build", str(text), "-o", str(index), *([] if tunnel else ["--no-tunnel"])]) == 0
    capsys.readouterr()
    assert main(["stats", str(index)]) == 0
    lines = dict(line.split(": ") for line in capsys.readouterr().out.strip().splitlines())
    k, keys = int(lines["kgram_k"]), int(lines["kgram_keys"])
    assert 1 < k <= 8
    assert keys == len({data[i:i + k] for i in range(len(data) - k + 1)})
    assert 24 * keys < int(lines["kgram_bytes"]) < 24 * keys + 512


@pytest.mark.parametrize("tunnel", [True, False])
def test_stats_reports_the_hop_table(tmp_path, capsys, tunnel):
    # the lockstep walk's hop table, which stats makes as no locate has: 16
    # hops a round, the default sample rate of a 2 KB text (12) rounded up to
    # a power of 2, and an int32 and an int64 per L position
    text, index = tmp_path / "t.txt", tmp_path / "t.twgi"
    text.write_bytes(copy_paste_mutate(random.Random(4), 2048, 4))
    assert main(["build", str(text), "-o", str(index), *([] if tunnel else ["--no-tunnel"])]) == 0
    capsys.readouterr()
    assert main(["stats", str(index)]) == 0
    lines = dict(line.split(": ") for line in capsys.readouterr().out.strip().splitlines())
    ix = load_index(str(index))
    assert bool(ix.tg.tunnels) == tunnel
    assert int(lines["hops_per_round"]) == 16
    assert int(lines["hop_bytes"]) == 12 * (ix.tg.g.m + 1)
    # the start table, three int32 by node, made only where a range can
    # hold a tunnel node
    assert int(lines["start_bytes"]) == (12 * (ix.tg.g.n + 1) if tunnel else 0)


@pytest.mark.parametrize("tunnel", [True, False])
def test_stats_reports_the_extract_table(tmp_path, capsys, tunnel):
    # extract's tables, which stats makes as no extract has: an int32 per L
    # position and a byte per tunnel node
    text, index = tmp_path / "t.txt", tmp_path / "t.twgi"
    text.write_bytes(copy_paste_mutate(random.Random(4), 2048, 4))
    assert main(["build", str(text), "-o", str(index), *([] if tunnel else ["--no-tunnel"])]) == 0
    capsys.readouterr()
    assert main(["stats", str(index)]) == 0
    lines = dict(line.split(": ") for line in capsys.readouterr().out.strip().splitlines())
    ix = load_index(str(index))
    tunnel_nodes = sum(t.length for t in ix.tg.tunnels)
    assert bool(tunnel_nodes) == tunnel
    assert int(lines["extract_bytes"]) == 4 * (ix.tg.g.m + 1) + tunnel_nodes


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
# GRAPH tunneled on BLOCKS, as `twgi graph tunnel` writes it
TUNNELED = ("WG 5 5 3\n#! tunneled\n#! orig-n 7\n#! iprime 11111\n#! oprime 11111\n"
            "#! entrance 2\n#! inner 3\n#! tunnel 2 3 2 2\n#! exitcopy 4:1 5:2\n"
            "1 2 a\n4 2 a\n2 3 b\n3 4 c\n3 5 c\n")


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
    "exit copy 0": TUNNELED.replace("5:2", "5:0"),
    "exit copy above the widest tunnel": TUNNELED.replace("5:2", "5:9"),
    "exit copy given twice": TUNNELED.replace("5:2", "5:2 5:1"),
    "exit copy off an exit": TUNNELED.replace("5:2", "5:2 3:1"),
    "exit copy past m_t": TUNNELED.replace("5:2", "5:2 6:1"),
    "exit copies falling": TUNNELED.replace("4:1 5:2", "4:2 5:1"),
    "iprime character": TUNNELED.replace("iprime 11111", "iprime 1x1z1"),
    "oprime two tokens": TUNNELED.replace("oprime 11111", "oprime 11111 0"),
    "inner mark out of range": TUNNELED.replace("inner 3", "inner 3 0 999"),
    "inner mark repeated": TUNNELED.replace("inner 3", "inner 3 3"),
    "tunnel length 0": TUNNELED.replace("#! tunnel 2 3 2 2", "#! tunnel 2 3 2 0"),
    "tunnel exit past n_t": TUNNELED.replace("#! tunnel 2 3 2 2", "#! tunnel 2 99 2 2"),
    # only orig-n ties a record's width to the graph
    "tunnel width without orig-n": TUNNELED.replace("#! orig-n 7\n", "").replace(
        "#! tunnel 2 3 2 2", "#! tunnel 2 3 3 2"),
}
# the entries above that break a line of TUNNELED, and what the error names
BAD_TUNNEL_META = {
    "exit copy 0": "must lie in [1..2]",
    "exit copy above the widest tunnel": "must lie in [1..2]",
    "exit copy given twice": "exit edge 5 is given a copy twice",
    "exit copy off an exit": "edge 3 has a copy but does not leave a tunnel node",
    "exit copy past m_t": "edge 6 has a copy but does not leave a tunnel node",
    "exit copies falling": "must not fall",
    "iprime character": "iprime must be one token of 0s and 1s",
    "oprime two tokens": "oprime must be one token of 0s and 1s",
    "inner mark out of range": "inner marks must be distinct and in [1..5]",
    "inner mark repeated": "inner marks must be distinct and in [1..5]",
    "tunnel length 0": "width >= 2 and length >= 1",
    "tunnel exit past n_t": "an exit in [1..5]",
    "tunnel width without orig-n": "orig-n None is not the records' 9",
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


def test_tunneled_graph_file_answers(tmp_path, capsys):
    # the file that each BAD_TUNNEL_META entry breaks in one line
    gf, bf, out = tmp_path / "g.wg", tmp_path / "b.blk", tmp_path / "t.wg"
    gf.write_text(GRAPH)
    bf.write_text(BLOCKS)
    assert main(["graph", "tunnel", str(gf), "--blocks", str(bf), "-o", str(out)]) == 0
    assert out.read_text() == TUNNELED
    capsys.readouterr()
    for pattern, want in (("cabc", "FOUND [5, 5]"), ("abc", "FOUND [4, 5]")):
        assert main(["graph", "search", str(out), pattern]) == 0
        assert capsys.readouterr().out.strip() == want


@pytest.mark.parametrize("name", sorted(BAD_TUNNEL_META))
def test_bad_tunnel_meta_exit_1(tmp_path, capsys, name):
    gf = tmp_path / "g.wg"
    gf.write_text(MALFORMED_GRAPHS[name])
    assert main(["graph", "search", str(gf), "cabc"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and BAD_TUNNEL_META[name] in captured.err
    assert captured.out == ""


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

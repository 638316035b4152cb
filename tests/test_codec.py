import io
import random

import pytest

from mismax import (
    CodecError,
    complete_graph,
    empty_graph,
    from_edges,
    graph6_decode,
    graph6_encode,
    read_edge_list,
    read_graph6_stream,
    write_edge_list,
)

from mismax.codec import Graph6Block, _graph6_block, read_graph6_blocks
from mismax.extremal import _lane_mask
from mismax.graph import triangle_mask

from conftest import path_graph, random_graph, rows_by_bit_walk


def test_fixed_vectors_decode():
    assert graph6_decode("A_") == complete_graph(2)
    assert graph6_decode("Bw") == complete_graph(3)
    assert graph6_decode("D??") == empty_graph(5)


def test_fixed_vectors_encode():
    assert graph6_encode(complete_graph(2)) == "A_"
    assert graph6_encode(complete_graph(3)) == "Bw"
    assert graph6_encode(empty_graph(0)) == "?"
    assert graph6_encode(empty_graph(5)) == "D??"


def test_header_stripped():
    assert graph6_decode(">>graph6<<A_") == complete_graph(2)


def test_roundtrip_random_suite():
    rng = random.Random(20230815)
    for _ in range(1000):
        n = rng.randint(0, 20)
        g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        s = graph6_encode(g)
        assert graph6_decode(s) == g
        assert graph6_encode(graph6_decode(s)) == s


@pytest.mark.parametrize(
    "bad",
    [
        "",  # empty
        "A",  # too short for n=2
        "A__",  # too long
        "A\x1f",  # char below 63
        "~??",  # long form marker
        "A" + chr(127),  # char above 126
    ],
)
def test_decode_malformed(bad):
    with pytest.raises(CodecError):
        graph6_decode(bad)


def test_decode_rejects_nonzero_padding():
    # n=5 has 10 triangle bits in 12; the low 2 are padding and must be zero
    with pytest.raises(CodecError):
        graph6_decode("D?@")


# the marker alone, with a short tail, as the long form of n = 63 ("~??~" and
# 326 data characters), and on the data of the largest short-form order
@pytest.mark.parametrize(
    "line", ["~", "~??", "~??~" + "?" * 326, "~" + graph6_encode(complete_graph(62))[1:]]
)
def test_decode_long_form_message(line):
    with pytest.raises(CodecError) as exc:
        graph6_decode(line)
    assert str(exc.value) == "long-form graph6 (n > 62) not supported"


def test_decode_largest_short_form_order():
    g = complete_graph(62)
    assert graph6_encode(g)[0] == "}"
    assert graph6_decode(graph6_encode(g)) == g


def test_encode_rejects_large_order():
    # the decoder cannot meet n > 62 in short form: the first character of
    # n = 63 is the long-form marker "~"
    with pytest.raises(CodecError) as exc:
        graph6_encode(empty_graph(63))
    assert str(exc.value) == "graph order 63 exceeds graph6 short form limit 62"


def test_edge_list_roundtrip():
    g = path_graph(4)
    assert read_edge_list("4 3\n0 1\n1 2\n2 3") == g
    assert read_edge_list("1 0") == empty_graph(1)
    text = write_edge_list(g)
    assert text == "4 3\n0 1\n1 2\n2 3\n"
    assert read_edge_list(text) == g


def test_edge_list_normalizes():
    s = "3 2\n2 1\n0 2"
    assert write_edge_list(read_edge_list(s)) == "3 2\n0 2\n1 2\n"


@pytest.mark.parametrize(
    "bad,lineno",
    [
        ("", 1),
        ("3", 1),
        ("a b", 1),
        ("2 1\n0", 2),
        ("2 1\n0 x", 2),
    ],
)
def test_edge_list_errors_carry_line_numbers(bad, lineno):
    with pytest.raises(CodecError) as exc:
        read_edge_list(bad)
    assert exc.value.line == lineno


def test_edge_list_inconsistent_m():
    with pytest.raises(CodecError):
        read_edge_list("3 2\n0 1")


def test_stream_yields_in_order():
    gs = list(read_graph6_stream(["A_", "Bw", "D??"]))
    assert gs == [complete_graph(2), complete_graph(3), empty_graph(5)]


def test_stream_ignores_blank_final_line():
    gs = list(read_graph6_stream(["A_", ""]))
    assert gs == [complete_graph(2)]


def test_stream_rejects_interior_blank_line():
    with pytest.raises(CodecError) as exc:
        list(read_graph6_stream(["A_", "", "Bw"]))
    assert exc.value.line == 2


def test_stream_error_carries_line_number():
    with pytest.raises(CodecError) as exc:
        list(read_graph6_stream(["A_", "A"]))
    assert exc.value.line == 2


def test_roundtrip_edge_list_random():
    rng = random.Random(7)
    for _ in range(100):
        g = random_graph(rng, rng.randint(0, 16), 0.4)
        assert read_edge_list(write_edge_list(g)) == g


def graph6_of_mask(n, mask):
    """Reference encode: the mask's bits from the top, six to a character,
    zero padding at the end."""
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    stream = mask << (6 * nbytes - nbits)
    return chr(n + 63) + "".join(chr((stream >> 6 * k & 63) + 63) for k in reversed(range(nbytes)))


def test_decode_every_mask_up_to_5():
    for n in range(6):
        for mask in range(1 << (n * (n - 1) // 2)):
            assert graph6_decode(graph6_of_mask(n, mask)).adj == rows_by_bit_walk(n, mask)


@pytest.mark.parametrize("n", range(6, 15))  # across the block limit of order 12
def test_decode_seeded(n):
    rng = random.Random(900 + n)
    nbits = n * (n - 1) // 2
    masks = [0, (1 << nbits) - 1] + [rng.getrandbits(nbits) for _ in range(60)]
    for mask in masks:
        assert graph6_decode(graph6_of_mask(n, mask)).adj == rows_by_bit_walk(n, mask)


def malformed_lines(n):
    """(line, message) for each decode error, built from a valid n-vertex line."""
    g6 = graph6_of_mask(n, random.Random(n).getrandbits(n * (n - 1) // 2))
    cases = [
        (">>graph6<<", "empty graph6 string"),
        (g6[:3] + "é" + g6[4:], "character 'é' outside graph6 range 63..126"),
        (g6[:-1] + ">", "character '>' outside graph6 range 63..126"),
        (g6[:2] + chr(127) + g6[3:], "character '\\x7f' outside graph6 range 63..126"),
        ("~" + g6[1:], "long-form graph6 (n > 62) not supported"),
        (g6[:-1], f"graph6 string length {len(g6) - 1} wrong for n={n} (expected {len(g6)})"),
        (g6 + "?", f"graph6 string length {len(g6) + 1} wrong for n={n} (expected {len(g6)})"),
    ]
    if (n * (n - 1) // 2) % 6:
        # the lowest bit of the last character is padding
        last = chr((ord(g6[-1]) - 63 | 1) + 63)
        cases.append((g6[:-1] + last, "nonzero padding bits in graph6 string"))
    return cases


# 9 and 13 have no padding bits, 10 and 14 have 3 and 5; 13 and 14 are above
# the orders read_graph6_blocks takes as blocks
@pytest.mark.parametrize("n", [9, 10, 13, 14])
def test_decode_error_messages_and_lines(n):
    valid = [graph6_of_mask(n, 0), graph6_of_mask(n, 1)]
    for line, message in malformed_lines(n):
        with pytest.raises(CodecError) as exc:
            graph6_decode(line)
        assert str(exc.value) == message
        assert exc.value.line is None
        with pytest.raises(CodecError) as exc:
            list(read_graph6_stream(valid + [line + "\n", valid[0]]))
        assert str(exc.value) == f"line 3: {message}"
        assert exc.value.line == 3


def text_of(lines):
    return "".join(line + "\n" for line in lines)


def mask_planes(n, masks):
    """The edge planes of the graphs of the triangle masks, lane g the graph
    of masks[g]: pair p of triangle_pairs is mask bit nbits-1-p."""
    nbits = n * (n - 1) // 2
    return tuple(
        sum((mask >> nbits - 1 - p & 1) << g for g, mask in enumerate(masks)) for p in range(nbits)
    )


# orders 13 and 15 are block orders above the subset tables: 13 pads no
# bit, and 15 pads 3 bits of its 18 columns
@pytest.mark.parametrize("n", [0, 1, 4, 9, 10, 12, 13, 15])
def test_graph6_block_cuts_valid_lines_into_columns(n):
    rng = random.Random(n)
    masks = [rng.getrandbits(n * (n - 1) // 2) for _ in range(20)]
    lines = [graph6_of_mask(n, mask) for mask in masks]
    assert _graph6_block(text_of(lines)) == Graph6Block(n, 20, mask_planes(n, masks))


def test_graph6_block_is_two_lines_or_more():
    assert Graph6Block._fields == ("n", "size", "planes")
    line = graph6_of_mask(9, 0x2F1D3)
    assert _graph6_block(text_of([line])) is None
    assert _graph6_block(">>graph6<<" + text_of([line])) is None
    assert _graph6_block(text_of([line, line])) == Graph6Block(9, 2, mask_planes(9, [0x2F1D3] * 2))


# orders 2, 3, 5 to 8, 10, 11, 14 and 15 pad their last character; 70 lanes
# make planes longer than a machine word
@pytest.mark.parametrize("n", range(16))
def test_edge_planes_hold_the_pair_bits_of_each_line(n):
    rng = random.Random(f"planes:{n}")
    nbits = n * (n - 1) // 2
    lines = [graph6_of_mask(n, rng.getrandbits(nbits)) for _ in range(70)]
    masks = [triangle_mask(graph6_decode(line)) for line in lines]
    planes = _graph6_block(text_of(lines)).planes
    assert planes == mask_planes(n, masks)
    # the verifier reads an unrecognized attainer lane's mask back from them
    assert [_lane_mask(planes, g) for g in range(70)] == masks


@pytest.mark.parametrize("n", [9, 10])
def test_graph6_block_refuses_what_decode_refuses(n):
    valid = [graph6_of_mask(n, 0), graph6_of_mask(n, 1)]
    for line, _ in malformed_lines(n):
        assert _graph6_block(text_of(valid + [line] + valid)) is None, line


@pytest.mark.parametrize(
    "text",
    [
        "Bw\nB",  # no final newline
        "Bw\n\nBw\n",
        "Bw\r\n",
        " Bw\n",
        "A_\nBw\n",  # orders 2 and 3 have lines of one length
        "@\n?\n",
        graph6_of_mask(16, 0) + "\n",  # above _LANE_MAX_N, the lane kernel's orders
        "",
        ">>graph6<<",  # a header alone at the end of the stream
    ],
)
def test_graph6_block_refuses_other_layouts(text):
    assert _graph6_block(text) is None


def test_read_graph6_blocks_split_a_refused_cut_at_its_odd_lines(monkeypatch):
    # the first 64 characters and the rest of their line hold 3 lines of
    # order 9, an odd line of order 8 and 5 lines of order 9: a block, the
    # odd line as a Graph, and a block again
    monkeypatch.setattr("mismax.codec._BLOCK_CHARS", 64)
    lines = [graph6_of_mask(9, mask * 0x2F1D3) for mask in range(12)]
    items = list(read_graph6_blocks(io.StringIO(text_of([*lines[:3], "G?????", *lines[3:]]))))
    assert items == [
        _graph6_block(text_of(lines[:3])),
        graph6_decode("G?????"),
        _graph6_block(text_of(lines[3:8])),
        _graph6_block(text_of(lines[8:])),
    ]
    # a run of one line between odd lines is a Graph, not a block of one
    items = list(read_graph6_blocks(io.StringIO(text_of(["G?????", lines[0], "G?????", *lines[1:4]]))))
    assert items == [
        *map(graph6_decode, ["G?????", lines[0], "G?????"]),
        _graph6_block(text_of(lines[1:4])),
    ]
    # orders 2 and 3 have lines of one length: a run that mixes them goes
    # line by line
    monkeypatch.setattr("mismax.codec._BLOCK_CHARS", 8)
    items = list(read_graph6_blocks(io.StringIO("Bw\nBo\nBw\nBo\nA_\nBw\n")))
    # "w" holds the pairs 0, 1 and 2, "o" the pairs 0 and 1
    assert items[0] == Graph6Block(3, 3, (0b111, 0b111, 0b101))
    assert items[1:] == [graph6_decode(line) for line in ["Bo", "A_", "Bw"]]
    with pytest.raises(CodecError, match="^line 5: "):
        list(read_graph6_blocks(io.StringIO("Bw\nBo\nBw\nBo\nA\n")))


def test_read_graph6_blocks_skip_a_header(monkeypatch):
    # 40 lines of order 9, 8 characters with the newline; the header and 6
    # lines fill the first 64 characters, which stop in the 7th line; each
    # later 64 characters hold 8 lines and stop at a line's end, so each
    # later cut reads one more line
    monkeypatch.setattr("mismax.codec._BLOCK_CHARS", 64)
    lines = [graph6_of_mask(9, mask * 0x2F1D3) for mask in range(40)]
    items = list(read_graph6_blocks(io.StringIO(">>graph6<<" + text_of(lines))))
    cuts = [0, 7, 16, 25, 34, 40]
    assert items == [_graph6_block(text_of(lines[a:b])) for a, b in zip(cuts, cuts[1:])]


def test_read_graph6_blocks_resume_blocks_after_a_refused_cut(monkeypatch):
    # an order-8 line refuses the first cut, which stops in the 8th line of
    # order 9; the 8 lines after it are a block, and from the 9th on, every
    # cut is a block again, of 9 lines
    monkeypatch.setattr("mismax.codec._BLOCK_CHARS", 64)
    lines = [graph6_of_mask(9, mask * 0x2F1D3) for mask in range(40)]
    items = list(read_graph6_blocks(io.StringIO(text_of(["G?????", *lines]))))
    assert items[:2] == [graph6_decode("G?????"), _graph6_block(text_of(lines[:8]))]
    assert items[2:] == [_graph6_block(text_of(lines[k:k + 9])) for k in range(8, 40, 9)]


def test_read_graph6_blocks_errors_after_resuming_name_their_line(monkeypatch):
    monkeypatch.setattr("mismax.codec._BLOCK_CHARS", 64)
    lines = [graph6_of_mask(9, mask) for mask in range(40)]
    lines[1] = "G?????"  # refuses the first cut, which ends after line 9
    lines[30] = lines[30][:-1]  # too short, in the cut of lines 28 to 36
    items = []
    with pytest.raises(CodecError, match="^line 31: graph6 string length 6 wrong"):
        items.extend(read_graph6_blocks(io.StringIO(text_of(lines))))
    assert items[:3] == [*map(graph6_decode, lines[:2]), _graph6_block(text_of(lines[2:9]))]
    assert items[3:] == [_graph6_block(text_of(lines[k:k + 9])) for k in (9, 18)] + [
        _graph6_block(text_of(lines[27:30]))
    ]


def test_read_graph6_stream_numbers_from_start():
    with pytest.raises(CodecError) as exc:
        list(read_graph6_stream(["A_\n", "A\n"], start=41))
    assert exc.value.line == 42

import random

import pytest

from geoformal import formal_lang as fl
from geoformal.formal_lang import (
    ArityMismatchError,
    CaptionSyntaxError,
    ConstRef,
    DuplicatePointError,
    ForwardReferenceError,
    FormalCaption,
    FormalLangError,
    Literal,
    NumRef,
    Operator,
    OutOfVocabError,
    ProgramSyntaxError,
    SolutionProgram,
    UnknownOperatorError,
    VarRef,
    collinear,
    concyclic,
)

from oracles import (bench_style_candidates, random_bytes_text, random_caption_text,
                     random_program_text, reference_parse_program)


# ---------------------------------------------------------------------------
# Captions
# ---------------------------------------------------------------------------

def test_parse_collinear_line():
    c = fl.parse_caption("Line A E D")
    assert c.relations == (collinear("A", "E", "D"),)


def test_parse_concyclic_line():
    c = fl.parse_caption("\\odot O lieson A C D B")
    assert c.relations == (concyclic("O", "A", "C", "D", "B"),)


def test_parse_concyclic_doubled_backslash_accepted():
    # the annotation tables render the circle keyword with two backslashes
    c = fl.parse_caption("\\\\odot O lieson A C D B")
    assert c.relations == (concyclic("O", "A", "C", "D", "B"),)
    assert fl.format_caption(c) == "\\odot O lieson A C D B"


def test_parse_empty_caption():
    assert fl.parse_caption("") == FormalCaption()


def test_parse_multiline_preserves_order():
    text = "Line A E D\nLine A O C\nLine B O D"
    c = fl.parse_caption(text)
    assert [r.points for r in c.relations] == [("A", "E", "D"), ("A", "O", "C"), ("B", "O", "D")]


def test_duplicate_point_rejected():
    with pytest.raises(DuplicatePointError) as exc:
        fl.parse_caption("Line A A")
    assert exc.value.label == "A"


def test_center_in_members_rejected():
    with pytest.raises(DuplicatePointError):
        fl.parse_caption("\\odot O lieson A O B")


@pytest.mark.parametrize("bad,line,expected_hint", [
    ("Circle A B", 1, "'Line' or '\\odot'"),
    ("Line A", 1, "point label"),
    ("Line A E D\nLine 9Z B", 2, "point label"),
    ("\\odot O wrong A", 1, "'lieson'"),
    ("\\odot lieson A", 1, "point label"),
])
def test_caption_syntax_errors_carry_position(bad, line, expected_hint):
    with pytest.raises(CaptionSyntaxError) as exc:
        fl.parse_caption(bad)
    assert exc.value.line == line
    assert exc.value.column >= 1
    assert exc.value.expected == expected_hint


def test_format_caption_examples():
    assert fl.format_caption(FormalCaption((collinear("B", "O", "D"),))) == "Line B O D"
    assert (
        fl.format_caption(FormalCaption((concyclic("O", "A", "D", "C", "B"),)))
        == "\\odot O lieson A D C B"
    )
    assert fl.format_caption(FormalCaption()) == ""


def test_caption_roundtrip_fuzz():
    rng = random.Random(101)
    for _ in range(1000):
        text = random_caption_text(rng)
        c = fl.parse_caption(text)
        assert fl.format_caption(c) == text
        assert fl.parse_caption(fl.format_caption(c)) == c


def test_format_parse_idempotent_on_messy_text():
    messy = "  Line   A  B \n\n\\odot  O   lieson  C  "
    once = fl.format_caption(fl.parse_caption(messy))
    twice = fl.format_caption(fl.parse_caption(once))
    assert once == twice == "Line A B\n\\odot O lieson C"


def test_relation_invariants_on_construction():
    with pytest.raises(FormalLangError):
        fl.Relation(fl.COLLINEAR, ("A",))
    with pytest.raises(FormalLangError):
        fl.Relation(fl.COLLINEAR, ("A", "B"), center="O")
    with pytest.raises(FormalLangError):
        fl.Relation(fl.CONCYCLIC, ("A",))
    with pytest.raises(FormalLangError):
        fl.Relation(fl.COLLINEAR, ("A", "lower"))


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------

def test_parse_program_with_var_after_producer():
    p = fl.parse_program("gougu_minus 5.0 4.0 g_minus 5.0 V_0")
    assert p.tokens == (
        Operator("gougu_minus"), Literal(5.0), Literal(4.0),
        Operator("g_minus"), Literal(5.0), VarRef(0),
    )


def test_standalone_var_reference_is_forward_reference():
    with pytest.raises(ForwardReferenceError):
        fl.parse_program("gougu_minus 5.0 V_0")


def test_parse_numref_program():
    # hand re-tokenization: operator, then two problem-number slots
    p = fl.parse_program("g_minus N_0 N_1")
    assert p.tokens == (Operator("g_minus"), NumRef(0), NumRef(1))


def test_bare_operator_is_arity_mismatch():
    with pytest.raises(ArityMismatchError) as exc:
        fl.parse_program("g_equal")
    assert exc.value.operator == "g_equal"
    assert exc.value.expected == 1
    assert exc.value.got == 0


def test_operator_in_operand_position_is_arity_mismatch():
    with pytest.raises(ArityMismatchError):
        fl.parse_program("g_add g_equal 1.0")


def test_unknown_operator():
    with pytest.raises(UnknownOperatorError):
        fl.parse_program("nosuch 1.0")


def test_gibberish_operand():
    with pytest.raises(ProgramSyntaxError):
        fl.parse_program("g_equal foo")


def test_const_ref_parses():
    p = fl.parse_program("g_mul 2.0 C_PI")
    assert p.tokens[-1] == ConstRef("PI")


def test_format_program_examples():
    p = SolutionProgram((Operator("Sum"), NumRef(0), NumRef(1), NumRef(2)))
    assert fl.format_program(p) == "Sum N_0 N_1 N_2"
    assert fl.format_program(SolutionProgram()) == ""


def test_program_roundtrip_fuzz():
    rng = random.Random(202)
    for _ in range(1000):
        text = random_program_text(rng, n_numbers=3)
        p = fl.parse_program(text)
        assert fl.format_program(p) == text
        assert fl.parse_program(fl.format_program(p)) == p


def test_literal_canonical_formatting():
    assert fl.format_number(5.0) == "5.0"
    assert fl.format_number(0.5) == "0.5"
    assert fl.format_number(3.14) == "3.14"
    p = fl.parse_program("g_equal 5")
    assert fl.format_program(p) == "g_equal 5.0"


def test_parser_never_crashes_on_arbitrary_bytes():
    rng = random.Random(303)
    for _ in range(1000):
        text = random_bytes_text(rng)
        for parse in (fl.parse_caption, fl.parse_program):
            try:
                parse(text)
            except FormalLangError:
                pass


def parse_outcome(parse, text):
    """The program `parse` returns, or its error's class, message and position."""
    try:
        return parse(text)
    except FormalLangError as exc:
        return type(exc), str(exc), exc.position


def test_parser_matches_reference_parser():
    rng = random.Random(404)
    texts = [random_program_text(rng, n_numbers=3) for _ in range(500)]
    texts += [random_bytes_text(rng) for _ in range(500)]
    for _ in range(100):
        texts += bench_style_candidates(rng, n_numbers=rng.randint(0, 3))
    texts += ["g_equal N_" + "9" * 4000, "g_equal 1e999", "g_equal -0.0", "g_equal .5e3"]
    for text in texts:
        assert parse_outcome(fl.parse_program, text) == \
            parse_outcome(reference_parse_program, text), text


def test_operand_memo_is_bounded():
    memo = fl._operand_token
    size = memo.cache_info().maxsize
    for k in range(10 * size):
        fl.parse_program(f"g_equal {k}.5")
        assert memo.cache_info().currsize <= size


def test_error_positions_are_per_occurrence():
    for text, position in (("g_equal 1.8.0", 1), ("g_equal N_0 g_equal 1.8.0", 3),
                           ("g_equal 1.8.0", 1)):
        with pytest.raises(ProgramSyntaxError) as exc:
            fl.parse_program(text)
        assert exc.value.position == position
        assert str(exc.value) == f"token {position}: expected operand, got '1.8.0'"


@pytest.mark.parametrize("refused_first", [True, False])
def test_forward_references_are_per_occurrence(refused_first):
    fl._operand_token.cache_clear()
    for _ in range(2):
        for refused in (refused_first, not refused_first):
            if refused:
                with pytest.raises(ForwardReferenceError) as exc:
                    fl.parse_program("g_equal V_0")
                assert exc.value.position == 1 and exc.value.available == 0
            else:
                p = fl.parse_program("g_equal N_0 g_equal V_0")
                assert p.tokens[-1] == VarRef(0)


def test_program_tokens_are_shared_between_parses():
    a = fl.parse_program("g_add N_0 180.0")
    b = fl.parse_program("g_add N_0 180.0 g_half V_0")
    assert all(x is y for x, y in zip(a.tokens, b.tokens))
    assert a.tokens == (Operator("g_add"), NumRef(0), Literal(180.0))


# ---------------------------------------------------------------------------
# Vocab
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def vocab():
    return fl.build_default_vocab()


def test_vocab_bijective(vocab):
    for i in range(len(vocab)):
        assert vocab.id_of(vocab.token_of(i)) == i


def test_vocab_specials_fixed(vocab):
    assert vocab.id_of(fl.PAD) == fl.PAD_ID == 0
    assert vocab.id_of(fl.BOS) == fl.BOS_ID == 1
    assert vocab.id_of(fl.EOS) == fl.EOS_ID == 2
    assert vocab.id_of(fl.SEP) == fl.SEP_ID == 3


def test_tokenize_direct_lookup(vocab):
    ids = fl.tokenize("Line A B", vocab)
    assert ids == [vocab.id_of("Line"), vocab.id_of("A"), vocab.id_of("B")]


def test_tokenize_out_of_vocab(vocab):
    with pytest.raises(OutOfVocabError):
        fl.tokenize("Zeta9X", vocab)


def test_number_tokenization_keeps_adjacent_numbers_apart(vocab):
    text = "gougu_add 5.0 4.0"
    assert fl.detokenize(fl.tokenize(text, vocab), vocab) == text


def test_caption_tokenize_roundtrip_fuzz(vocab):
    rng = random.Random(404)
    for _ in range(300):
        text = random_caption_text(rng, single_letter=True)
        flat = " ".join(text.split())
        assert fl.detokenize(fl.tokenize(flat, vocab), vocab) == flat


def test_program_tokenize_roundtrip_fuzz(vocab):
    rng = random.Random(505)
    for _ in range(300):
        text = random_program_text(rng, n_numbers=4)
        assert fl.detokenize(fl.tokenize(text, vocab), vocab) == text


def test_vocab_file_roundtrip(tmp_path, vocab):
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    again = fl.Vocab.load(path)
    assert again.tokens() == vocab.tokens()

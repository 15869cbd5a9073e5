"""Command-line interface.

Every subcommand prints one JSON document to stdout whose first key is
``"schema": 1`` — except ``graph dot``, which prints DOT text.  Output
is deterministic: identical invocations produce identical bytes.

Exit codes: 0 on success, 2 on domain errors (bad parameters, malformed
words, unreadable input) with a message on stderr, 64 for an unknown
subcommand or mode, and 1 when ``verify-paper`` finds a failing claim.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import homs, oracle, quotients, raag, semidirect, verify
from .perms import strand_permutation, virtual_permutation
from .words import Params, parse_word

# ``graph dot`` refuses to print more vertex and edge lines than this.
DOT_LINE_LIMIT = 1_000_000


def _json(value, pad: str = "") -> str:
    """Exactly ``json.dumps(value, indent=2)``, for a value nested at ``pad``.

    ``json`` falls back to its pure-Python encoder whenever ``indent`` is
    set; this writer builds the same text with less work per value.  It
    writes dicts with ``str`` keys, lists, tuples, ``str``, ``int``,
    ``bool`` and ``None`` itself, and hands anything else (floats, int
    subclasses, other keys) to ``json.dumps``, re-indented to ``pad``:
    json escapes newlines inside strings, so each newline there starts a
    line.  An ``int`` with more digits than the interpreter converts to
    ``str`` (4,300 by default), where ``json.dumps`` raises, is written
    in full through ``decimal``, which has no such limit; the limit
    itself is left alone for the rest of the process.
    """
    kind = type(value)
    if kind is str:
        return json.dumps(value)
    if kind is int:
        try:
            return repr(value)
        except ValueError:  # past the digit limit
            import decimal  # here, so that no other output pays for its import

            return str(decimal.Decimal(value))
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    inner = pad + "  "
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        try:
            items = [repr(item) if type(item) is int else _json(item, inner) for item in value]
        except ValueError:  # an int past the digit limit: write each item as above
            items = [_json(item, inner) for item in value]
        body = (",\n" + inner).join(items)
        return "[\n" + inner + body + "\n" + pad + "]"
    if kind is dict and all(type(key) is str for key in value):
        if not value:
            return "{}"
        body = (",\n" + inner).join(
            [json.dumps(key) + ": " + _json(item, inner) for key, item in value.items()]
        )
        return "{\n" + inner + body + "\n" + pad + "}"
    return json.dumps(value, indent=2).replace("\n", "\n" + pad)


def _emit(**fields) -> int:
    # _json writes the bytes json.dumps(doc, indent=2) would, only faster.
    sys.stdout.write(_json({"schema": 1, **fields}) + "\n")
    return 0


def _nf_dict(nf: semidirect.NormalForm) -> dict:
    return {
        "delta_nf": [letter.token() for letter in nf.kword.letters],
        "perm": list(nf.perm.images),
        "cycles": nf.perm.cycle_string(),
    }


def _cmd_nf(args: argparse.Namespace, params: Params) -> int:
    return _emit(**_nf_dict(semidirect.to_normal_form(parse_word(args.word, params))))


def _cmd_eq(args: argparse.Namespace, params: Params) -> int:
    left = semidirect.to_normal_form(parse_word(args.left, params))
    right = semidirect.to_normal_form(parse_word(args.right, params))
    return _emit(equal=left == right, left=_nf_dict(left), right=_nf_dict(right))


def _cmd_trivial(args: argparse.Namespace, params: Params) -> int:
    nf = semidirect.to_normal_form(parse_word(args.word, params))
    return _emit(trivial=not nf.kword.letters and nf.perm.is_identity, **_nf_dict(nf))


def _cmd_pure(args: argparse.Namespace, params: Params) -> int:
    w = parse_word(args.word, params)
    p = strand_permutation(w)
    return _emit(pure=p.is_identity, strand_perm=list(p.images), strand_cycles=p.cycle_string())


def _cmd_perm(args: argparse.Namespace, params: Params) -> int:
    w = parse_word(args.word, params)
    sp = strand_permutation(w)
    vp = virtual_permutation(w)
    return _emit(
        strand_perm=list(sp.images),
        strand_cycles=sp.cycle_string(),
        virtual_perm=list(vp.images),
        virtual_cycles=vp.cycle_string(),
    )


def _cmd_graph(args: argparse.Namespace, params: Params) -> int:
    n, c = params.n, params.c
    verts = n * (n - 1) * c
    # Each (i, j, t) commutes with the letters on the other n - 2 strands.
    degree = (n - 2) * (n - 3) * c if verts else 0
    edges = verts * degree // 2
    if args.mode == "stats":
        return _emit(vertices=verts, edges=edges, min_degree=degree, max_degree=degree)
    if verts + edges > DOT_LINE_LIMIT:
        raise ValueError(
            f"graph dot prints at most {DOT_LINE_LIMIT} vertex and edge lines,"
            f" got {verts + edges} for n={n}, c={c}"
        )
    sys.stdout.writelines(raag.to_dot(params))
    return 0


def _cmd_vcd(args: argparse.Namespace, params: Params) -> int:
    k = raag.clique_number(params)
    return _emit(clique_number=k, vcd=k)


def _cmd_howson(args: argparse.Namespace, params: Params) -> int:
    free, witness = raag.is_p3_free(params)
    return _emit(
        howson=free, p3_witness=None if witness is None else [list(v) for v in witness]
    )


def _cmd_lerf_witness(args: argparse.Namespace, params: Params) -> int:
    witness = raag.f2xf2_witness(params)
    return _emit(
        lerf=witness is None,
        f2xf2_witness=None if witness is None else [list(v) for v in witness],
    )


def _cmd_center_witness(args: argparse.Namespace, params: Params) -> int:
    dom = [list(v) for v in raag.dominating_vertices(params)]
    if params.n >= 2:
        # the pair moves only strands 1 and 2, so its scan reads the same at every n
        p2 = Params(2, params.c)
        pair = ["r1 s1.1", "s1.1 r1"]
        commute = semidirect.are_equal(parse_word(pair[0], p2), parse_word(pair[1], p2))
    else:
        pair = None
        commute = None
    return _emit(dominating_vertices=dom, noncommuting_pair=pair, commute=commute)


def _cmd_hom_check(args: argparse.Namespace, params: Params) -> int:
    if args.file == "-":
        raw = sys.stdin.read()
    else:
        try:
            with open(args.file, encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read {args.file}: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc
    h = homs.HomSpec.from_json_dict(data, params)
    ok, label = homs.verify_homspec(h, params)
    return _emit(
        homomorphism=ok,
        failed_relation=label,
        abelian_image=homs.has_abelian_image(h) if ok else None,
    )


def _cmd_hom_phi(args: argparse.Namespace, params: Params) -> int:
    try:
        bits = tuple(int(piece) for piece in args.eps.split(","))
    except ValueError as exc:
        raise ValueError(f"--eps must be comma-separated bits: {args.eps!r}") from exc
    h = homs.hom_from_bits(bits, params)
    fields = {
        "bits": list(bits),
        "admissible": homs.is_admissible(bits, params) if params.n >= 3 else None,
        "hom": h.to_json_dict(),
    }
    if args.word is not None:
        image = h.evaluate(parse_word(args.word, params))
        fields["image"] = list(image.images)
        fields["image_cycles"] = image.cycle_string()
    return _emit(**fields)


def _cmd_hom_enumerate(args: argparse.Namespace, params: Params) -> int:
    budget = homs.SearchBudget(max_nodes=args.max_nodes, max_seconds=args.max_seconds)
    try:
        found = homs.enumerate_homs(params, args.m, budget)
    except homs.BudgetExceededError as exc:
        sys.stderr.write(
            f"search budget exceeded with {len(exc.partial)} homomorphisms found\n"
        )
        return 2
    return _emit(m=args.m, count=len(found), homs=[h.to_json_dict() for h in found])


def _cmd_ab(args: argparse.Namespace, params: Params) -> int:
    image = homs.abelianize(parse_word(args.word, params))
    return _emit(sigma_exponents=list(image.sigma_exponents), rho_parity=image.rho_parity)


def _cmd_chi(args: argparse.Namespace, params: Params) -> int:
    w = parse_word(args.word, params)
    return _emit(t=args.t, parity=homs.color_parity(args.t, w))


def _cmd_quot_eval(args: argparse.Namespace, params: Params) -> int:
    elem = quotients.quotient_image(parse_word(args.word, params), args.d)
    return _emit(
        d=args.d,
        vec=list(elem.vec),
        perm=list(elem.perm.images),
        cycles=elem.perm.cycle_string(),
    )


def _cmd_quot_order(args: argparse.Namespace, params: Params) -> int:
    cert = quotients.quotient_order(params, args.d)
    return _emit(
        d=args.d,
        order=cert.order,
        n_factorial=cert.n_factorial,
        method=cert.method,
        closure_size=cert.closure_size,
    )


def _cmd_oracle_eq(args: argparse.Namespace, params: Params) -> int:
    u = parse_word(args.left, params)
    v = parse_word(args.right, params)
    result = oracle.bfs_equal(u, v, max_depth=args.depth, max_frontier=args.width)
    return _emit(
        verdict=result.verdict,
        path=None if result.path is None else [list(step) for step in result.path],
        explored=result.explored,
    )


def _cmd_verify(args: argparse.Namespace, _params: None) -> int:
    results = verify.run_all(args.seed)
    ok = all(r.ok for r in results)
    _emit(
        seed=args.seed,
        ok=ok,
        results=[{"claim": r.claim, "ok": r.ok, "details": r.details} for r in results],
    )
    return 0 if ok else 1


def _arg(name: str, **spec) -> tuple[str, dict]:
    return name, spec


_PARAMS = (
    _arg("--n", type=int, required=True, help="number of strands"),
    _arg("--c", type=int, default=1, help="number of crossing types"),
)
_WORD = _arg("--word", required=True, help="word over r<i> / s<i>.<t> tokens")
_PAIR = (_arg("left", help="first word"), _arg("right", help="second word"))

# One row per command or mode: (command, mode, help, arguments, handler).
# A row without mode or handler heads a command whose modes are the rows
# below it.
_TABLE = (
    ("nf", None, "canonical normal form of a word", (*_PARAMS, _WORD), _cmd_nf),
    ("trivial", None, "test whether a word is the identity", (*_PARAMS, _WORD), _cmd_trivial),
    (
        "pure", None, "test whether a word has trivial strand permutation",
        (*_PARAMS, _WORD), _cmd_pure,
    ),
    ("perm", None, "strand and virtual permutations of a word", (*_PARAMS, _WORD), _cmd_perm),
    ("ab", None, "image in the abelianisation", (*_PARAMS, _WORD), _cmd_ab),
    ("eq", None, "decide equality of two words", (*_PARAMS, *_PAIR), _cmd_eq),
    ("graph", None, "kernel commutation graph", (), None),
    ("graph", "dot", "the graph in DOT", _PARAMS, _cmd_graph),
    ("graph", "stats", "vertex, edge and degree counts", _PARAMS, _cmd_graph),
    ("vcd", None, "clique number of the commutation graph", _PARAMS, _cmd_vcd),
    ("howson", None, "induced-path-freeness classification", _PARAMS, _cmd_howson),
    (
        "lerf-witness", None, "complete-bipartite obstruction witness",
        _PARAMS, _cmd_lerf_witness,
    ),
    (
        "center-witness", None, "dominating vertices and a non-commuting pair",
        _PARAMS, _cmd_center_witness,
    ),
    ("hom", None, "homomorphisms to symmetric groups", (), None),
    (
        "hom", "check", "verify a homomorphism given as JSON",
        (*_PARAMS, _arg("--file", default="-", help="JSON file, or - for stdin")),
        _cmd_hom_check,
    ),
    (
        "hom", "phi", "the switch-family homomorphism for a bit tuple",
        (
            *_PARAMS,
            _arg("--eps", required=True, help="comma-separated bits, length c+1"),
            _arg("--word", help="optional word to evaluate"),
        ),
        _cmd_hom_phi,
    ),
    (
        "hom", "enumerate", "all homomorphisms to S_m",
        (
            *_PARAMS,
            _arg("--m", type=int, required=True, help="target degree"),
            _arg("--max-nodes", type=int, default=homs.SearchBudget.max_nodes),
            _arg("--max-seconds", type=float, default=homs.SearchBudget.max_seconds),
        ),
        _cmd_hom_enumerate,
    ),
    (
        "chi", None, "parity of one crossing colour",
        (*_PARAMS, _arg("--t", type=int, required=True, help="colour index"), _WORD),
        _cmd_chi,
    ),
    ("quot", None, "finite wreath-style quotients", (), None),
    (
        "quot", "eval", "image of a word in the quotient",
        (
            *_PARAMS,
            _arg("--d", type=int, required=True, help="cyclic modulus (0 for integers)"),
            _WORD,
        ),
        _cmd_quot_eval,
    ),
    (
        "quot", "order", "order of the quotient with certificate",
        (*_PARAMS, _arg("--d", type=int, required=True, help="cyclic modulus")),
        _cmd_quot_order,
    ),
    ("oracle", None, "presentation-level rewriting prover", (), None),
    (
        "oracle", "eq", "search for a rewriting proof of equality",
        (
            *_PARAMS,
            _arg("--depth", type=int, default=oracle.MAX_DEPTH, help="maximum proof length"),
            _arg("--width", type=int, default=oracle.MAX_FRONTIER, help="frontier size cap"),
            *_PAIR,
        ),
        _cmd_oracle_eq,
    ),
    (
        "verify-paper", None, "run the built-in claim verification suite",
        (_arg("--seed", type=int, default=verify.DEFAULT_SEED),), _cmd_verify,
    ),
)


_Parsers = tuple[
    argparse.ArgumentParser,
    dict[str, list[str]],
    dict[tuple[str, str | None], argparse.ArgumentParser],
]


@functools.cache
def _parser() -> _Parsers:
    """The top parser, every command's modes and each handler row's own
    parser keyed by (command, mode), all read off ``_TABLE``."""
    parser = argparse.ArgumentParser(prog="uvbraid", description=__doc__)
    commands = parser.add_subparsers(dest="command")
    modes: dict[str, list[str]] = {}
    leaves: dict[tuple[str, str | None], argparse.ArgumentParser] = {}
    for command, mode, help_text, arguments, handler in _TABLE:
        if mode is None:
            p = commands.add_parser(command, help=help_text)
            modes[command] = []
        else:
            p = argparse.ArgumentParser(prog=f"uvbraid {command} {mode}")
            modes[command].append(mode)
        for name, spec in arguments:
            p.add_argument(name, **spec)
        p.set_defaults(handler=handler, mode=mode)
        if handler is not None:
            leaves[command, mode] = p
    return parser, modes, leaves


def run(argv: list[str] | None = None) -> int:
    """Run one ``uvbraid`` invocation and return its exit code.

    After the command, the first argument that names one of its modes is
    the mode, wherever it stands, even when it was meant as an option's
    value: ``hom --word check phi ...`` is read as ``hom check``.  The mode
    is taken out and the rest goes to that row's own parser.
    """
    if argv is None:
        argv = sys.argv[1:]
    parser, modes, leaves = _parser()
    if not argv or argv[0] in ("-h", "--help"):
        parser.print_help()
        return 0 if argv else 64
    command, rest = argv[0], argv[1:]
    if command not in modes:
        sys.stderr.write(f"unknown command: {command}\n")
        return 64
    mode = next((tok for tok in rest if tok in modes[command]), None)
    if modes[command] and mode is None:
        sys.stderr.write(
            f"unknown mode for {command}: expected one of {', '.join(modes[command])}\n"
        )
        return 64
    if mode is not None:
        rest.remove(mode)
    try:
        args, extra = leaves[command, mode].parse_known_args(rest)
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        params = Params(args.n, args.c) if "n" in args else None
        return args.handler(args, params)
    except (ValueError, OverflowError) as exc:
        big = [f"--{name}" for name in ("n", "c") if getattr(args, name, 0) > sys.maxsize]
        if big and isinstance(exc, OverflowError):  # CPython's text names no option or limit
            exc = ValueError(f"{big[0]} must be at most sys.maxsize = {sys.maxsize}")
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))

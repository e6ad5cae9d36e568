"""Command-line entry point.

Subcommands: eval, normalize, basis, dims, centralizer, oracle, verify.
Exit codes: 0 ok, 1 a check failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import (CaseTag, build, cayley_hamilton_check, check_axioms,
                      format_fraction, skew_symmetrization_check)
from .basis import (BudgetError, check_catalan_budget, check_web_budget, enumerate_catalan,
                    enumerate_webs, riordan)
from .centralizer import brauer_map, matrix_model, structure_constants
from .grassmann import super_pfaffian_check
from .oracle import (EXACT_LIMIT, CertificateError, certified_dim, check_closed_under_bracket,
                     check_kills_form, derivations, invariant_dim, zero_grade)
from .rewrite import (RewriteError, RewriteTrace, _eval_vector, eval_diagram, normalize,
                      rules_for)
from .tangle import WordError, parse_word
from .tensor import evaluate, zero_map


def _load_word(path):
    if path == "-":
        return parse_word(sys.stdin.read())
    with open(path, encoding="utf-8") as f:
        return parse_word(f.read())


def _arity(text):
    """argparse type for strand counts: a non-negative integer."""
    try:
        value = int(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a non-negative integer, not {text!r}")


def cmd_eval(args):
    alg = build(CaseTag(args.case))
    word = _load_word(args.word_file)
    t = evaluate(word, alg)
    if t.n_in == 0 and t.n_out == 0:
        if args.json:
            print(json.dumps({"scalar": format_fraction(t.scalar_value())}))
        else:
            print(format_fraction(t.scalar_value()))
        return 0
    obj = t.to_json_obj()
    print(json.dumps(obj) if args.json else json.dumps(obj, indent=2))
    return 0


def cmd_normalize(args):
    alg = build(CaseTag(args.case))
    word = _load_word(args.word_file)
    trace = RewriteTrace(alg.case) if args.trace else None
    out = normalize(word, alg, trace=trace, memo={})
    terms = [{"diagram": d.canonical_encoding().decode(), "coeff": format_fraction(c)}
             for d, c in sorted(out, key=lambda t: t[0].canonical_encoding())]
    payload = {"case": alg.case.value, "terms": terms}
    if trace is not None:
        payload["trace"] = trace.as_rows()
    print(json.dumps(payload) if args.json else json.dumps(payload, indent=2))
    return 0


def cmd_basis(args):
    case = CaseTag(args.case)
    if case is CaseTag.DIM7:
        diags = enumerate_webs(args.n, args.m)
        items = [{"encoding": d.canonical_encoding().decode(),
                  "planar": d.to_json_obj()} for d in diags]
    else:
        tangles = enumerate_catalan(args.n, args.m)
        items = [{"encoding": t.diagram.canonical_encoding().decode(),
                  "blocks": [list(b) for b in t.blocks]} for t in tangles]
    print(json.dumps({"case": case.value, "n": args.n, "m": args.m,
                      "count": len(items), "diagrams": items},
                     indent=None if args.json else 2))
    return 0


def cmd_dims(args):
    """Basis counts against invariant dimensions, each certified by the exact
    rank of the evaluations of the same basis diagrams."""
    case = CaseTag(args.case)
    if case is CaseTag.DIM7:
        check_web_budget(args.nmax)
    else:
        check_catalan_budget(args.nmax)
    alg = build(case)
    der = derivations(alg)
    rows = []
    bad = False
    for n in range(args.nmax + 1):
        row = {"n": n}
        if case is CaseTag.DIM7:
            webs = enumerate_webs(n, 0)
            row["webs"] = count = len(webs)
        else:
            row["riordan"] = count = riordan(n)
        if alg.dim ** n <= EXACT_LIMIT:
            diagrams = (webs if case is CaseTag.DIM7
                        else (t.diagram for t in enumerate_catalan(n, 0)))
            # lazy: certified_dim finds the upper end first, so a row it
            # refuses there evaluates no diagram
            vectors = (_eval_vector(d, alg) for d in diagrams)
            try:
                row["invariant_dim"] = certified_dim(alg, n, vectors, der=der)
            except CertificateError as exc:
                row["refused"] = str(exc)
            bad |= row.get("invariant_dim") != count
        rows.append(row)
    print(json.dumps({"case": case.value, "rows": rows},
                     indent=None if args.json else 2))
    return 1 if bad else 0


def cmd_centralizer(args):
    alg = build(CaseTag(args.case))
    table = structure_constants(alg, args.n)
    obj = table.to_json_obj()
    obj["direct_rows"] = len(table.generator_rows())
    obj["identity_ok"] = table.check_identity()
    obj["associative_ok"] = table.check_associative()
    print(json.dumps(obj) if args.json else json.dumps(obj, indent=2))
    return 0 if obj["identity_ok"] and obj["associative_ok"] else 1


def cmd_oracle(args):
    alg = build(CaseTag(args.case))
    der = derivations(alg)
    rows = []
    for n in range(args.nmax + 1):
        if alg.dim ** n > EXACT_LIMIT:
            break
        rows.append({"n": n, "invariant_dim": invariant_dim(alg, n, der=der),
                     "columns": len(zero_grade(der, n))})
    print(json.dumps({
        "case": alg.case.value,
        "derivation_dim": der.dim,
        "derivation_even": der.even_dim(),
        "derivation_odd": der.odd_dim(),
        "invariants": rows,
    }, indent=None if args.json else 2))
    return 0


def cmd_verify(args):
    case = CaseTag(args.case)
    alg = build(case)
    failures = []

    def check(name, ok):
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
        if not ok:
            failures.append(name)

    rep = check_axioms(alg)
    check("axioms", rep.ok)
    if case is CaseTag.DIM7:
        check("skew symmetrization", skew_symmetrization_check(alg).ok)
        check("Cayley-Hamilton", cayley_hamilton_check(alg).ok)
    if case is CaseTag.KAP:
        check("super Pfaffian", super_pfaffian_check().ok)
    der = derivations(alg)
    check("derivations closed under bracket", check_closed_under_bracket(der))
    check("derivations kill the form", check_kills_form(der))
    try:
        rules_for(alg)
    except (RewriteError, ValueError):
        check("rule derivation", False)
        return 1              # every check below normalizes with the rules
    check("rule derivation", True)  # construction already verifies exactness
    word = parse_word("tangle 2 -> 2 / x")
    out = normalize(word, alg)
    lhs = evaluate(word, alg)
    rhs = zero_map(alg, 2, 2)
    for d, c in out:
        rhs = rhs.add(eval_diagram(d, alg).scale(c))
    check("switch normalization sound", lhs == rhs)
    model = matrix_model(alg, 2, der=der)
    check("centralizer n=2 model", all(model[k] for k in
                                       ("independent", "structure_match",
                                        "equivariant", "identity", "associative")))
    if case is not CaseTag.DIM7:
        _, _, _, rep2 = brauer_map(alg, 2)
        check("Brauer comparison n=2", rep2["homomorphism"])
    return 1 if failures else 0


def main(argv=None):
    top = argparse.ArgumentParser(prog="tangleweb")
    top.add_argument("--json", action="store_true", help="compact JSON output")
    top.add_argument("--trace", action="store_true")
    sub = top.add_subparsers(dest="cmd", required=True)

    def add_case(p):
        p.add_argument("--case", choices=[c.value for c in CaseTag], required=True)

    p = sub.add_parser("eval", help="evaluate a word file to a tensor map")
    add_case(p)
    p.add_argument("word_file")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("normalize", help="normalize a word file to basis diagrams")
    add_case(p)
    p.add_argument("word_file")
    p.set_defaults(fn=cmd_normalize)

    p = sub.add_parser("basis", help="enumerate basis diagrams [n] -> [m]")
    add_case(p)
    p.add_argument("n", type=_arity)
    p.add_argument("m", type=_arity)
    p.set_defaults(fn=cmd_basis)

    p = sub.add_parser("dims", help="diagram counts vs oracle dimensions")
    add_case(p)
    p.add_argument("nmax", type=_arity)
    p.set_defaults(fn=cmd_dims)

    p = sub.add_parser("centralizer", help="structure constants of End(V^n)")
    add_case(p)
    p.add_argument("n", type=_arity)
    p.set_defaults(fn=cmd_centralizer)

    p = sub.add_parser("oracle", help="derivation algebra and invariant dims")
    add_case(p)
    p.add_argument("nmax", type=_arity)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("verify", help="run the per-case check suite")
    add_case(p)
    p.set_defaults(fn=cmd_verify)

    args = top.parse_args(argv)   # argparse exits with code 2 on usage errors
    try:
        return args.fn(args)
    except (WordError, BudgetError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

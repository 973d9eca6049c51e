"""Command line front end.

Exit codes: 0 member / true, 1 non-member / false, 2 unknown, 3 usage or
precondition error, 4 internal error.  Every decision command takes --json
for a machine readable envelope.
"""

import argparse
import functools
import json
import os
import re
import sys
import time
import traceback

from submon.words import Presentation, WordError
from submon.magnus import MagnusError, max_min_report
from submon.presentations import builtin, select_engine
from submon.distortion import SearchBudget
from submon.deciders import (
    DeciderError, reduce_to_dg_instance, decide_surface_submonoid,
    decide_surface_magnus, decide_prefix_surface, decide_bs_magnus,
    decide_burns_magnus, decide_positivity_fbc, choose_signs,
    powers_decider, emit_positivity_gadget,
)

_SURFACE_RE = re.compile(r"^([SN])(\d+)$", re.IGNORECASE)


def resolve_group(text):
    """A presentation from a builtin name, a file path, or inline text."""
    try:
        return builtin(text)
    except WordError:
        pass
    if os.path.exists(text):
        with open(text) as fh:
            return Presentation.parse(fh.read())
    if "gens:" in text:
        return Presentation.parse(text.replace(";", "\n"))
    raise WordError(f"cannot resolve group {text!r}")


def split_list(text):
    return [part.strip() for part in text.split(",") if part.strip()]


def make_budget(args):
    if getattr(args, "depth", None) is None:
        return None
    return SearchBudget(args.depth)


def emit(args, verdict, started, extra=None):
    elapsed_ms = round((time.perf_counter() - started) * 1000, 3)
    if args.json:
        envelope = {"schema": 1, "elapsed_ms": elapsed_ms}
        envelope.update(verdict.to_dict())
        if extra:
            envelope.update(extra)
        print(json.dumps(envelope, indent=2, sort_keys=True))
    else:
        print(f"verdict: {verdict.outcome}")
        if verdict.witness is not None:
            print("witness:", " . ".join(verdict.witness) if verdict.witness
                  else "(empty product)")
        if verdict.methods:
            print("method:", "+".join(verdict.methods))
        if verdict.bound is not None:
            print("bound:", verdict.bound)
        if verdict.certificate:
            print("certificate:", json.dumps(verdict.certificate, sort_keys=True))
        if verdict.instance is not None:
            print("instance:", json.dumps(verdict.instance.serialize(),
                                          sort_keys=True))
    if verdict.is_member:
        return 0
    if verdict.is_non_member:
        return 1
    return 2


def cmd_wp(args):
    pres = resolve_group(args.group)
    engine = select_engine(pres)
    if engine is None:
        print("no word problem engine for this presentation", file=sys.stderr)
        return 2
    u = pres.word(args.word)
    if args.word2 is not None:
        answer = engine.equal(u, pres.word(args.word2))
    else:
        answer = engine.is_trivial(u)
    if args.json:
        print(json.dumps({"schema": 1, "engine": engine.name,
                          "answer": bool(answer)}))
    else:
        print(f"{'yes' if answer else 'no'} ({engine.name})")
    return 0 if answer else 1


def cmd_member(args):
    started = time.perf_counter()
    pres = resolve_group(args.group)
    verdict = decide_surface_submonoid(pres, split_list(args.gens), args.word,
                                       budget=make_budget(args))
    return emit(args, verdict, started)


def _surface_params(text):
    m = _SURFACE_RE.match(text.strip())
    if m is None:
        raise DeciderError(
            f"{text!r} is not a surface family name like S2 or N3")
    return int(m.group(2)), m.group(1).upper() == "S"


def cmd_prefix(args):
    started = time.perf_counter()
    g, orientable = _surface_params(args.group)
    verdict = decide_prefix_surface(g, orientable, args.word,
                                    budget=make_budget(args))
    return emit(args, verdict, started)


def cmd_magnus(args):
    started = time.perf_counter()
    g, orientable = _surface_params(args.group)
    verdict = decide_surface_magnus(g, orientable, split_list(args.letters),
                                    args.word, budget=make_budget(args))
    return emit(args, verdict, started)


def cmd_bs_magnus(args):
    started = time.perf_counter()
    verdict = decide_bs_magnus(args.m, args.n, split_list(args.letters),
                               args.word, budget=make_budget(args))
    return emit(args, verdict, started)


def cmd_burns(args):
    started = time.perf_counter()
    verdict = decide_burns_magnus(split_list(args.letters), args.word,
                                  budget=make_budget(args))
    return emit(args, verdict, started)


def cmd_positivity(args):
    started = time.perf_counter()
    pres = resolve_group(args.group)
    verdict = decide_positivity_fbc(pres, args.word,
                                    budget=make_budget(args))
    return emit(args, verdict, started)


def cmd_analyze(args):
    pres = resolve_group(args.group)
    report = max_min_report(pres, args.stable)
    payload = {
        "schema": 1,
        "stable": args.stable,
        "sigma": report.sigma,
        "image": None if report.image is None else report.image.format(),
        "passes": report.passes,
        "qualifying": list(report.qualifying),
        "stats": report.stats,
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        if report.image is not None:
            print(f"relator image (stable {args.stable}): "
                  f"{report.image.format()}")
        print(f"stable exponent sum: {report.sigma}")
        for name in sorted(report.stats):
            st = report.stats[name]
            print(f"  {name}: subscripts in [{st['min']}, {st['max']}], "
                  f"{st['at_min']} at min, {st['at_max']} at max")
        line = "max/min: " + ("PASS" if report.passes else "FAIL")
        if report.qualifying:
            line += " (qualifying: " + ", ".join(report.qualifying) + ")"
        print(line)
    return 0 if report.passes else 1


def cmd_reduce_dg(args):
    pres = resolve_group(args.group)
    inst = reduce_to_dg_instance(pres, args.stable, split_list(args.gens),
                                 query=args.query)
    print(json.dumps(inst.serialize(), indent=2, sort_keys=True))
    return 0


def cmd_gadget(args):
    pres = resolve_group(args.group)
    out = emit_positivity_gadget(pres, split_list(args.gens))
    if args.json:
        print(json.dumps(out.serialize(), indent=2, sort_keys=True))
    else:
        sys.stdout.write(out.presentation.format())
        print("stable:", out.stable)
        for name, spelling in out.conjugates.items():
            print(f"{name} conjugates: {spelling}")
    return 0


def cmd_signs(args):
    pres = resolve_group(args.group)
    gen, signs = choose_signs(pres, split_list(args.gens))
    if args.json:
        print(json.dumps({"schema": 1, "generator": gen, "signs": signs}))
    else:
        print("generator:", gen)
        print("signs:", " ".join("+" if s > 0 else "-" for s in signs))
    return 0


def cmd_powers(args):
    started = time.perf_counter()
    pres = resolve_group(args.group)
    verdict = powers_decider(pres, split_list(args.powers), args.word,
                             budget=make_budget(args))
    return emit(args, verdict, started)


def nonnegative_int(text):
    """The type of --depth: a negative factor count is a usage error."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


_DEPTH = {"type": nonnegative_int, "default": None}


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 3: argparse's own 2 means unknown here.  The
    subcommand parsers are built from this class too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


@functools.lru_cache(maxsize=None)
def build_parser():
    """The whole parser, built on the first call and reused by every later
    `main` call in the process; parsing leaves it unchanged."""
    parser = _Parser(
        prog="submon",
        description="membership deciders for submonoids of one-relator groups")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **arguments):
        p = sub.add_parser(name)
        for flag, kw in arguments.items():
            p.add_argument("--" + flag.replace("_", "-"), **kw)
        p.add_argument("--json", action="store_true")
        p.set_defaults(fn=fn)
        return p

    add("wp", cmd_wp,
        group={"required": True},
        word={"required": True},
        word2={"default": None})
    add("member", cmd_member,
        group={"required": True},
        gens={"required": True},
        word={"required": True},
        depth=_DEPTH)
    add("prefix", cmd_prefix,
        group={"required": True},
        word={"required": True},
        depth=_DEPTH)
    add("magnus", cmd_magnus,
        group={"required": True},
        letters={"required": True},
        word={"required": True},
        depth=_DEPTH)
    add("bs-magnus", cmd_bs_magnus,
        m={"type": int, "required": True},
        n={"type": int, "required": True},
        letters={"required": True},
        word={"required": True},
        depth=_DEPTH)
    add("burns", cmd_burns,
        letters={"required": True},
        word={"required": True},
        depth=_DEPTH)
    add("positivity", cmd_positivity,
        group={"required": True},
        word={"required": True},
        depth=_DEPTH)
    add("analyze", cmd_analyze,
        group={"required": True},
        stable={"required": True})
    add("reduce-dg", cmd_reduce_dg,
        group={"required": True},
        stable={"required": True},
        gens={"required": True},
        query={"default": None})
    add("gadget", cmd_gadget,
        group={"required": True},
        gens={"required": True})
    add("signs", cmd_signs,
        group={"required": True},
        gens={"required": True})
    add("powers", cmd_powers,
        group={"required": True},
        powers={"required": True},
        word={"required": True},
        depth=_DEPTH)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (DeciderError, MagnusError, WordError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except Exception as e:
        traceback.print_exc()
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

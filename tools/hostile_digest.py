"""tools/identity_digest.py with each ``cli.main`` call made under a hostile decimal context.

Usage::

    python tools/hostile_digest.py {trap,none} [--nmax N]

Both ``decimal.DefaultContext`` and the current context hold prec 3,
ROUND_FLOOR, Emin -9, Emax 9, capitals 0 and clamp 1, with every signal
trapped (``trap``) or none (``none``), during each call.  The rest of the
command line goes to the identity digest, which must print the same digest
as without this wrapper: no answer, report or refusal may read the ambient
decimal context.  The ``metroent`` package is imported from this checkout's
``src/``.  The standard library is all the script needs.
"""


import decimal
import sys
from pathlib import Path

if sys.argv[1:2] not in (["trap"], ["none"]):
    raise SystemExit("usage: hostile_digest.py {trap,none} [--nmax N]")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import identity_digest  # noqa: E402  (beside this script)
from metroent import cli  # noqa: E402

# the thread's own context, made now: made later, it would copy the hostile defaults
decimal.setcontext(decimal.Context())
signals = list(decimal.DefaultContext.traps) if sys.argv[1] == "trap" else []
hostile = decimal.Context(prec=3, rounding=decimal.ROUND_FLOOR, Emin=-9, Emax=9, capitals=0,
                          clamp=1, flags=[], traps=signals)
fields = ("prec", "rounding", "Emin", "Emax", "capitals", "clamp", "traps")
run = cli.main


def hostile_main(argv):
    default = decimal.DefaultContext
    saved = default.copy()
    for name in fields:
        setattr(default, name, getattr(hostile, name))
    try:
        with decimal.localcontext(hostile):
            return run(argv)
    finally:
        for name in fields:
            setattr(default, name, getattr(saved, name))


cli.main = hostile_main
sys.exit(identity_digest.main(sys.argv[2:]))

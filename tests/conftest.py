from shabound.elliptic import add_points


def multiple(e, n, pt):
    """n * pt by repeated add_points; -pt is the other point with x(pt)."""
    if n < 0:
        n, pt = -n, (pt[0], -pt[1] - e.a1 * pt[0] - e.a3)
    acc = None
    for _ in range(n):
        acc = add_points(e, acc, pt)
    return acc


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    try:
        from test_acceptance import VERDICTS
    except ImportError:
        return
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in sorted(VERDICTS):
            terminalreporter.write_line(line)

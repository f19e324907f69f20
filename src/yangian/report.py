"""Pass/fail reports with exact residuals for identity checks."""

from . import render


class Report:
    """Outcome of one identity check over a sweep of cases.

    Residuals are recorded per labelled case; an empty list is a pass.
    Documented deviations are mismatches whose exact repair was found and
    verified; they are reported with their residuals but do not fail the
    check.  Notes carry observations that do not affect the status.
    """

    __slots__ = ("identity", "params", "residuals", "documented", "notes",
                 "cases")

    def __init__(self, identity, **params):
        self.identity = identity
        self.params = dict(params)
        self.residuals = []
        self.documented = []
        self.notes = []
        self.cases = 0

    def tally(self, count=1):
        self.cases += count

    def record(self, label, residual=None):
        self.residuals.append((str(label), residual))

    def document(self, label, residual=None):
        """Record a deviation with a verified repair; does not fail."""
        self.documented.append((str(label), residual))

    def note(self, text):
        self.notes.append(str(text))

    def check(self, label, lhs, rhs):
        """Record lhs - rhs when nonzero; counts the case either way."""
        self.cases += 1
        if lhs == rhs:
            return True
        diff = lhs - rhs
        if not diff.is_zero():
            self.record(label, diff)
        return diff.is_zero()

    @property
    def passed(self):
        return not self.residuals

    @property
    def status(self):
        if self.residuals:
            return "fail"
        if self.documented:
            return "documented"
        return "pass"

    def as_dict(self):
        out = {
            "identity": self.identity,
            "params": render.params_payload(self.params),
            "status": self.status,
            "cases": self.cases,
            "residuals": {label: render.payload(res) if res is not None
                          else None for label, res in self.residuals},
        }
        if self.documented:
            out["documented"] = {label: render.payload(res)
                                 if res is not None else None
                                 for label, res in self.documented}
        if self.notes:
            out["notes"] = list(self.notes)
        return out

    def summary_line(self):
        state = {"pass": "pass", "documented": "pass*",
                 "fail": "FAIL"}[self.status]
        extra = " (%d cases)" % self.cases if self.cases else ""
        line = "%-58s %s%s" % (self.identity, state, extra)
        return line

    def __repr__(self):
        return "Report(%r, %s)" % (self.identity, self.status)

"""Error taxonomy shared by the library and the CLI.

The CLI maps these onto exit codes: InputError -> 2, BudgetError -> 3.
Library code raises them directly. A failed verification is not an
exception: the verifiers return reports and the CLI exits with 4.
"""


class InputError(ValueError):
    """Malformed or inconsistent input (bad shapes, NaN/Inf, bad headers)."""


class BudgetError(RuntimeError):
    """An enumeration or size budget would be exceeded.

    Carries the offending requirement so callers can report
    "required vs allowed" without string parsing.
    """

    def __init__(self, message, required, allowed):
        super().__init__(message)
        self.required = required
        self.allowed = allowed

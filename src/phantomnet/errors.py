"""Exception hierarchy shared by all phantomnet modules."""


class PhantomNetError(Exception):
    """Base class for every error raised by this package."""


class InvalidParameter(PhantomNetError):
    """A caller-supplied value violates an operation precondition."""


class ConnectivityError(PhantomNetError):
    """More than 1% of deployed nodes cannot reach the sink."""


class EmptyDomain(PhantomNetError):
    """Every sector of the phantom candidate domain is empty."""


class EmptyRing(PhantomNetError):
    """No node sits at exactly the requested flooding distance."""


class DomainError(PhantomNetError):
    """An analytic formula was evaluated outside its geometric domain."""


class ParseError(PhantomNetError):
    """A config file is syntactically malformed."""


class HarnessError(PhantomNetError):
    """Too many individual simulation runs failed to continue."""

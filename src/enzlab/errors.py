"""Exception hierarchy shared by all enzlab modules.

Every error carries a stable symbolic ``name`` (used by the CLI to map
failures to distinct exit codes) and a human-readable message.

``tests/test_cli.py`` reaches these codes from a config file through the
CLI: 3, 4, 5, 6, 8 and 12.  A number that is NaN or infinite is a 4, and so
are omega = 0, 1e-200, 1e200 or 1e308 (omega or omega^2 not finite and
positive), k = 1e200 (k^2 overflows), mu = 1e308 or omega = 1e154 at
h = 0.2 (|k| h > pi: fewer than two mesh points per wavelength),
mu = 225 at h = 0.15 in ``convergence-table``, whose coarsest mesh is 2h,
a radiation treatment without its truncation: ``radiation = pml`` with
``pml_thickness = 0`` or ``radiation = robin`` with a collar, and a finite
delta whose truncated expansion, or its H1 error against the direct solve,
is not finite, named with delta and the order: at h = 0.2, ``expand --delta
1e160,0`` (its sum overflows) and ``sweep-delta --deltas 1e100,0`` (the
square of its J = 2 error does).
A 5 is a shape, source or domain that cannot be made (``dopant = circle
0 0 0`` or ``0 0 -0.3``, ``outer = circle 0 0 -1``, a dopant leaving the
scatterer) or a source outside the physical exterior annulus.  A 6 also
comes from ``h = 1e-4`` (more than ``geometry.MAX_NODES`` nodes, refused
before the mesh is built) and from ``resonance-sweep`` on a dopant with no
more interior nodes than the eigenpairs it asks for.  7
(ZERO_COEFFICIENT) from ``direct`` with ``delta = 1e308,1e308``, finite but
with 1/delta rounding to 0; 8 (SINGULAR_SYSTEM) from ``direct`` with
``delta = 1e-300,0`` at h = 0.2, whose field's backward error is 6.9: the
direct solve's error of about eps/|delta| in the ENZ constant mode, which a
solve exact in that mode would turn into a field; 11 (EMPTY_WINDOW) from
``sweep-delta`` with a ``window`` disk that misses the mesh; 16 (DOMAIN)
from ``oracle-check`` with a truncation radius whose Bessel arguments pass
200; 17 (SINGULAR_MATCH) from ``oracle-check`` with ``delta = 1e-14``,
where the interface matching system is too ill-conditioned; 18 (DEGENERATE)
from ``resonance-sweep`` with a ``resonance_target`` at an eigenvalue pair
of zero mean.

Not reachable from the CLI: 15 (DIVERGENT_SERIES), because every CLI
expansion has an explicit order and only a full sum is certified; nor 6 from
:func:`enzlab.geometry.load_mesh` on a malformed mesh file, naming its path
and line.  Not reached by any config tried: 13 (BETA_NEAR_ZERO, raised only
by :func:`enzlab.auxiliary.compute_beta` when |beta| is below 1e-10 of the
scale of its three terms; mu from 1e-30 to 2500, mu = -1 and -100, i.e.
k = i and 10i).  Nor 14 (NO_CONVERGENCE; ``radius`` over the same
wavenumbers and ``rho_iters = 10``, ``resonance-sweep`` with targets -5 and
1e9 and dopant radii 0.1 and 0.15).

9 (INCOMPATIBLE_DATA) is reached through the CLI only with a patched
flux-method mu_eff: :func:`enzlab.auxiliary.solve_auxiliary_set` raises it
when that and the volume value differ by more than 1e-8 relative, since the
dopant flux then breaks the discrete balance flux = -k^2 int psi_d.
"""


class EnzLabError(Exception):
    """Base class for all enzlab errors."""

    name = "ERROR"
    exit_code = 1


class GeometryInvalid(EnzLabError):
    """Domain containment or curve validity violated."""

    name = "GEOMETRY_INVALID"
    exit_code = 5


class MeshFailure(EnzLabError):
    """Mesh could not be generated at the required quality floor, or a mesh file is malformed."""

    name = "MESH_FAILURE"
    exit_code = 6


class ZeroCoefficient(EnzLabError):
    """A diffusion coefficient of zero was requested on an active region."""

    name = "ZERO_COEFFICIENT"
    exit_code = 7


class SingularSystem(EnzLabError):
    """Linear solve failed (factorization breakdown or residual blow-up)."""

    name = "SINGULAR_SYSTEM"
    exit_code = 8


class IncompatibleData(EnzLabError):
    """Flux data break a discrete balance: unbalanced pure-Neumann data, or a
    variational flux that disagrees with the volume integral it must equal."""

    name = "INCOMPATIBLE_DATA"
    exit_code = 9


class TagMismatch(EnzLabError):
    """Field/functional/boundary tags do not line up."""

    name = "TAG_MISMATCH"
    exit_code = 10


class EmptyWindow(EnzLabError):
    """A norm window selects no triangles."""

    name = "EMPTY_WINDOW"
    exit_code = 11


class ResonantDopant(EnzLabError):
    """k^2 is (numerically) a Dirichlet eigenvalue of the dopant."""

    name = "RESONANT_DOPANT"
    exit_code = 12


class BetaNearZero(EnzLabError):
    """The flux-balance constant is numerically zero; discretization failure."""

    name = "BETA_NEAR_ZERO"
    exit_code = 13


class NoConvergence(EnzLabError):
    """An iterative estimator failed to settle within its budget."""

    name = "NO_CONVERGENCE"
    exit_code = 14


class DivergentSeries(EnzLabError):
    """A full series sum failed its resolvent-residual certificate.

    The relative defect of (I - delta T) on the summed state exceeds the
    solvers' backward-error bound: the series diverges at this delta or has
    not converged by the hierarchy's order J.
    """

    name = "DIVERGENT_SERIES"
    exit_code = 15


class DomainError(EnzLabError):
    """Special-function argument outside the supported range."""

    name = "DOMAIN"
    exit_code = 16


class SingularMatch(EnzLabError):
    """Radial interface-matching system is ill-conditioned."""

    name = "SINGULAR_MATCH"
    exit_code = 17


class Degenerate(EnzLabError):
    """Eigenvector means vanish where a nonzero mean is required."""

    name = "DEGENERATE"
    exit_code = 18


class ParseError(EnzLabError):
    """Configuration file could not be parsed."""

    name = "PARSE_ERROR"
    exit_code = 3


class ValidationError(EnzLabError):
    """Configuration parsed but violates an invariant."""

    name = "VALIDATION_ERROR"
    exit_code = 4

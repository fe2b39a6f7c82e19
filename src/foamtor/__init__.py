"""foamtor: divergence degrees, twisted cohomology and Reidemeister torsion of
heat-kernel-regularized flat gauge models on cell 2-complexes."""

__version__ = "0.1.0"

from .foam import (Foam, FaceWord, Letter, CellularReport, FoamError, builtin,
                   cellular_homology, match_builtin, parse_foam, reduce_foam,
                   serialize_foam,
                   tietze1_collapse, tietze1_expand, tietze2_add_face,
                   verify_redundancy)
from .groups import SU2, U1, CutLocusError, get_group
from .connection import (Connection, FlatSample, SampleSet, analytic_flat,
                         analytic_flat_batch, find_flat_batch,
                         flatness_residual, gauge_act, holonomy, holonomy_word,
                         word_jacobian)
from .twisted import (CohomologyReport, MinB2Report, build_delta0, build_delta1,
                      cohomology, cohomology_batch, min_b2, sample_flat, svd_rank)
from .torsion import (TorsionValue, gaussian_volume, torsion_at, torsion_batch,
                      torus_dominant_part, torus_volume_grid)
from .partition import (ScalingFit, ZEstimate, char_sum_limit, fit_scaling,
                        fit_toy, lambda_tau, toy_laplace, z_char_appendix,
                        z_char_surface, z_mc, zestimates_csv)

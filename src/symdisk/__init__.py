"""Distinguished varieties, numerical contractions, and Pick interpolation
on the symmetrized bidisk."""

from .config import DEFAULT, Tolerances, with_overrides
from .errors import (IllPlacedContour, InputError, NoActiveKernel,
                     NumericalError, SymdiskError)
from .gamma import (GammaPoint, Region, beta_of, classify_region, classify_regions,
                    phi_operator, stacked_fibers, symmetrize, szego_kernel)
from .linalg import (SpectralProjection, complete_to_unitary, hermitian_eig,
                     null_space, psd_sqrt, spectral_projection, spectrum)
from .numrange import (CnuDecomposition, CnuVerdict, cnu_decompose, is_cnu,
                       numerical_radii, numerical_radius, pu_compress,
                       pu_witness_search, verify_pu_reducing)
from .variety import (BivarPoly, PencilVariety, defining_poly,
                      distinguished_property_check, is_distinguished,
                      membership_residual, membership_residuals, pencil_varieties,
                      region_audit, region_audits, royal_containment, slice_points,
                      stacked_slice_points)
from .pick import (AdmissibilityReport, KernelMatrix, PickData, PsdReport,
                   admissibility_audit, agreement_locus, fundamental_operator,
                   gram_on_nodes, kernel_basis_operators,
                   nonextremal_perturbation, pick_matrix, psd_report)
from .extend import (ExtensionModel, SheetTrace, UniqueValues, branch_trace, branch_traces,
                     build_extension, kernel_vector_at, unique_value, unique_values)
from .realization import (RealizationModel, boundary_unitarity_audit,
                          eval_model, inner_defect, inner_defects,
                          lurking_isometry_interpolant)

__version__ = "0.1.0"

"""Distinguished varieties, numerical contractions, and Pick interpolation
on the symmetrized bidisk."""

from .config import DEFAULT, Tolerances, with_overrides
from .errors import (IllPlacedContour, InputError, NoActiveKernel,
                     NumericalError, SymdiskError)
from .gamma import (GammaPoint, Region, classify_region, phi_operator,
                    stacked_fibers, symmetrize, szego_kernel)
from .linalg import (SpectralProjection, null_space, psd_sqrt, spectral_projection,
                     spectrum)
from .numrange import (CnuDecomposition, CnuVerdict, cnu_decompose, is_cnu,
                       numerical_radii, numerical_radius, pu_compress,
                       pu_witness_search, verify_pu_reducing)
from .variety import (BivarPoly, PencilVariety, defining_poly,
                      distinguished_property_check, is_distinguished,
                      membership_residual, region_audit, slice_points)
from .pick import (AdmissibilityReport, KernelMatrix, PickData, PsdReport,
                   admissibility_audit, gram_on_nodes, kernel_basis_operators,
                   pick_matrix, psd_report)
from .extend import (ExtensionModel, SheetTrace, UniqueValues, branch_trace,
                     build_extension, kernel_vector_at, unique_value)
from .realization import (RealizationModel, boundary_unitarity_audit,
                          eval_model, inner_defect)

__version__ = "0.1.0"

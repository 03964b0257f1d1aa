"""EEG motor-imagery decoding with trainable spectral filters, CSP, and LDA.

Modules:
    dsp       The paper's preprocessing as one operator, Morlet kernels, STFT.
    autodiff  Reverse-mode graph, layer primitives, Adam.
    csp       Common spatial patterns and the differentiable feedback loss.
    lda       Two-class LDA and the Fisher criterion.
    model     The full network: CCSPNet and ModelConfig.
    data      Trial containers, binary dataset store, synthetic generator.
    harness   SD / LOSO evaluation runs, result CSVs, summaries.
    stats     t-tests, ANOVA, and the embedded benchmark report.
    fixtures  Published per-subject and per-method benchmark numbers.
    plots     STFT and CSP-scatter plot data (CSV + SVG).
    cli       Command-line front end (`ccspnet`).
    errors    Error classes and the exit codes the CLI maps them to.
"""

from .model import ABLATIONS, CCSPNet, ModelConfig

__version__ = "0.1.0"

__all__ = ["ABLATIONS", "CCSPNet", "ModelConfig", "__version__"]

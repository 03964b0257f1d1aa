"""Published benchmark numbers embedded so the statistics suite runs offline.

Per-subject OpenBMI accuracies (percent) for CCSPNet under the
subject-dependent (SD) and subject-independent (SI) protocols, plus the
summary statistics (mean, sd, n) of the comparison methods. All values are
transcribed from the published evaluation on the 54-subject dataset.
"""

import numpy as np

SUBJECT_ACCURACY_SD = np.array([
    91, 91, 97, 68, 86, 91, 81, 66, 70, 68, 47, 58, 60, 57, 59, 58, 67, 94,
    85, 59, 100, 90, 62, 49, 92, 55, 50, 100, 99, 68, 68, 98, 99, 68, 85, 91,
    90, 59, 69, 70, 57, 58, 90, 100, 97, 89, 54, 67, 63, 72, 53, 86, 61, 56,
], dtype=np.float64)

SUBJECT_ACCURACY_SI = np.array([
    85, 74, 96, 58, 88, 85, 68, 80, 76, 58, 49, 53, 65, 66, 62, 69, 81, 97,
    83, 81, 98, 95, 65, 59, 64, 59, 62, 100, 90, 60, 72, 99, 98, 50, 57, 90,
    94, 52, 85, 58, 52, 75, 68, 100, 97, 86, 89, 54, 60, 52, 85, 85, 59, 68,
], dtype=np.float64)

N_SUBJECTS = 54

# (mean, sd, n) per method, subject-dependent protocol
SD_METHOD_SUMMARIES = {
    "CSP": (68.57, 17.57, N_SUBJECTS),
    "CSSP": (69.68, 18.53, N_SUBJECTS),
    "FBCSP": (70.59, 18.56, N_SUBJECTS),
    "BSSFO": (71.02, 18.83, N_SUBJECTS),
    "EEGNet": (65.31, 18.72, N_SUBJECTS),
    "MIN2NET": (66.06, 16.58, N_SUBJECTS),
    "Molla et al.": (73.85, 15.25, N_SUBJECTS),
    "Kwon et al.": (71.32, 15.88, N_SUBJECTS),
    "CCSPNet": (74.41, 16.75, N_SUBJECTS),
}

# (mean, sd, n) per method, subject-independent protocol
SI_METHOD_SUMMARIES = {
    "Pooled CSP": (65.65, 16.11, N_SUBJECTS),
    "Fused model": (67.37, 16.01, N_SUBJECTS),
    "MR FBCSP": (68.59, 15.28, N_SUBJECTS),
    "MIN2NET": (72.03, 14.04, N_SUBJECTS),
    "Kwon et al.": (74.15, 15.83, N_SUBJECTS),
    "CCSPNet": (74.28, 16.12, N_SUBJECTS),
}

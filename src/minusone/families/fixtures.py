"""Reference parameter points used by the verification suites.

Three interior points of each admissible region, kept away from printed
denominator zeros and from special values that would merge distinct
branches of a check (e.g. beta = 1 would hide the scaling-variant question
on the continuous -1 Hahn to -1 Meixner-Pollaczek ladder).  Values are
decimal strings so they parse exactly at any working precision.
"""

FIXTURES = {
    "continuous-bannai-ito": [
        {"alpha": "0.25", "beta": "1", "gamma": "0.25", "delta": "0.5"},
        {"alpha": "0.5", "beta": "0.333333333333333333333333333333333333", "gamma": "1", "delta": "0.25"},
        {"alpha": "1", "beta": "1", "gamma": "0.5", "delta": "0.5"},
    ],
    "big-minus1-jacobi": [
        {"alpha": "0.5", "beta": "1.5", "c": "0.25"},
        {"alpha": "1", "beta": "2", "c": "0.333333333333333333333333333333333333"},
        {"alpha": "2", "beta": "1", "c": "0.5"},
    ],
    "chihara": [
        {"alpha": "0.5", "beta": "1.5", "gamma": "0.25"},
        {"alpha": "0", "beta": "1", "gamma": "0.5"},
        {"alpha": "2", "beta": "0.5", "gamma": "1"},
    ],
    "continuous-minus1-hahn-1": [
        {"alpha": "0.25", "beta": "0.5", "gamma": "0.75"},
        {"alpha": "0.5", "beta": "1", "gamma": "0.25"},
        {"alpha": "1", "beta": "0.333333333333333333333333333333333333", "gamma": "0.5"},
    ],
    "continuous-minus1-hahn-2": [
        {"alpha": "0.25", "beta": "0.5", "gamma": "0.75"},
        {"alpha": "0.5", "beta": "1", "gamma": "0.25"},
        {"alpha": "1", "beta": "0.333333333333333333333333333333333333", "gamma": "0.5"},
    ],
    "generalized-symmetric-bannai-ito": [
        {"a": "1", "b": "1", "c": "1"},
        {"a": "0.5", "b": "1.5", "c": "1"},
        {"a": "2", "b": "0.5", "c": "0.75"},
    ],
    "little-minus1-jacobi": [
        {"alpha": "0.5", "beta": "1.5"},
        {"alpha": "1", "beta": "1"},
        {"alpha": "2", "beta": "0.5"},
    ],
    "generalized-gegenbauer": [
        {"alpha": "0", "beta": "1"},
        {"alpha": "0.5", "beta": "1.5"},
        {"alpha": "-0.25", "beta": "0.5"},
    ],
    "minus1-meixner-pollaczek": [
        {"alpha": "0.5", "gamma": "0.25"},
        {"alpha": "0", "gamma": "0.75"},
        {"alpha": "1.5", "gamma": "0.5"},
    ],
    "symmetric-bannai-ito": [
        {"a": "0.5", "b": "1.5"},
        {"a": "1", "b": "1"},
        {"a": "0.75", "b": "1.25"},
    ],
    "special-little-minus1-jacobi": [
        {"alpha": "0.5"},
        {"alpha": "1"},
        {"alpha": "2"},
    ],
    "gegenbauer": [
        {"alpha": "0.5"},
        {"alpha": "1"},
        {"alpha": "2"},
    ],
    "generalized-hermite": [
        {"alpha": "0.5"},
        {"alpha": "0.25"},
        {"alpha": "1.5"},
    ],
    "hermite": [{}, {}, {}],
    "continuous-complementary-bannai-ito": [
        {"a1": "1", "b1": "0.5", "a2": "1.5", "b2": "0.25"},
        {"a1": "0.75", "b1": "0.333333333333333333333333333333333333", "a2": "1", "b2": "0.5"},
        {"a1": "0.5", "b1": "1", "a2": "2", "b2": "0.333333333333333333333333333333333333"},
    ],
    "little-q-jacobi-dilated": [
        {"a": "0.25", "b": "0.5", "q": "-0.9"},
        {"a": "0.5", "b": "0.25", "q": "-0.95"},
        {"a": "0.4", "b": "0.3", "q": "-0.99"},
    ],
    "big-q-jacobi": [
        {"a": "0.25", "b": "0.5", "c": "0.2", "q": "-0.9"},
        {"a": "0.5", "b": "0.25", "c": "0.1", "q": "-0.95"},
        {"a": "0.4", "b": "0.3", "c": "0.3", "q": "-0.99"},
    ],
    "continuous-q-hahn": [
        {"a": "0.8", "b": "0.7", "phi": "1.6707963267948966", "q": "-0.9"},
        {"a": "0.9", "b": "0.8", "phi": "1.6207963267948966", "q": "-0.95"},
        {"a": "0.85", "b": "0.75", "phi": "1.5907963267948966", "q": "-0.99"},
    ],
    "q-meixner-pollaczek": [
        {"a": "-0.5", "phi": "1.6707963267948966", "q": "-0.9"},
        {"a": "-0.6", "phi": "1.6207963267948966", "q": "-0.95"},
        {"a": "-0.55", "phi": "1.5907963267948966", "q": "-0.99"},
    ],
}

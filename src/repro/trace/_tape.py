"""Exact replica of the numpy ``Generator`` draw stream over a raw PCG64 tape.

The synthetic generator's walk (:func:`repro.trace.synthetic._walk`)
interleaves scalar ``Generator`` calls — ``random()``, bounded
``integers()``, ``geometric()`` — in a data-dependent order.  The
chunked generator (:mod:`repro.trace.vectorgen`) must reproduce it byte
for byte without that ``Generator``, which requires separating the
*bit source* from the *draw semantics*:

* the bit source is the raw PCG64 ``next_uint64`` sequence (the "tape"),
  obtainable at C speed from a cloned generator via full-range
  ``integers(0, 2**64, dtype=uint64)``;
* the draw semantics are re-implemented here, draw-for-draw compatible
  with numpy's C implementations (``distributions.c``):

  - ``random()``       -> ``(u64 >> 11) * 2**-53`` (one tape token)
  - ``integers(0, b)`` (b <= 2**32, the only form the trace generator
    uses) -> Lemire rejection sampling on *uint32 halves* of tape
    tokens, with the unconsumed high half cached in generator state
  - ``standard_exponential`` -> the 256-level ziggurat, whose tables are
    embedded below (extracted from the installed numpy binary so the
    float values are bit-exact)
  - ``geometric(p)``   -> inversion via the exponential ziggurat for
    p < 1/3, CDF search on one double otherwise

:class:`Tape` tracks the consumption cursor and the cached uint32 half,
so a real ``Generator`` can be re-synchronised at any point via
``PCG64.advance`` (see :func:`generator_at`).  The walk draws from a
windowed :class:`Tape` (``vectorgen._TapeDraws``); the fast span
decoder (:mod:`repro.trace._fastcore`) vectorizes the same semantics.

Everything here is validated against numpy itself by
``tests/trace/test_tape.py``.  :func:`self_check` runs a fast subset at
import time and gates the fast decoder, whose tables also build on
:data:`FE`/:data:`WE`/:data:`KE`.
"""

from __future__ import annotations

import base64
import math
import zlib

import numpy as np

__all__ = [
    "ZIG_R", "FE", "WE", "KE", "Tape", "raw_tape", "generator_at",
    "self_check",
]

#: ziggurat tail cutoff for the standard exponential (numpy's ``ziggurat_exp_r``)
ZIG_R = 7.69711747013104972

#: the three 256-entry ziggurat tables for ``standard_exponential``
#: (``fe_double``, ``we_double``, ``ke_double``), zlib+base64 so the
#: doubles are bit-exact rather than re-derived
_ZIG_PAYLOAD = (
    "eNo11Xc8V98fB/CbpMTXKImUq5KKktEgb45EiQpRESpKkrJXRolky8rMzt7rY++d7LJCCFnJTla/"
    "0x+/+8/z8TnnjnPf97xfH4L4d8yic8wuozLbZtDc31eKca3T6KjNlA0xOoV4X44xMB6cQj9WtWML"
    "LSZR6LObewIHJpBo0s1qQZUJdKq9wyLm8zjKr6GxGtccRzyC3CfdZn6gF59pQw2cfqAH8onqRQd/"
    "oFq211eqKscQjYbCs1XdMfQoPb7iJ9MYMk+5qideMopMnXsdgp6OohBXqz2FnKMofUWp4lHHCNIb"
    "9Fp74jaCjgwlpAdfHEH27pl8jZvfEUvbkHRf0XfU078jPtX6O2J7wCBzWOw7utsr8/3wxjDiViAp"
    "QeXDqESImfmZ0zCKUfQ45CU/jOolXhVO7hpGrjbO7KZfh9ARMc46ttghNGPY/KzZcAi9ZxUudhYb"
    "Qp5V++VEdwwhPk6+V91fBhFvq4qL+odBZCc2I1hgOohkddqnxi8OIu6F+5nDLIPIQubgpnjTN7Ra"
    "U+Z10uQbuiY11faG7RvyDguQFy8fQEoddmdl9AbQ+rkhc7/dA4j+YLzLgbJ+ZP2zwK5Hvx/R7Xsx"
    "UcLej3wHJfsq6vvQ/TXHnj6rPuQYy9BKw9uHcmfSdon0fUUudMFKem+/IkN7FX+/i1/RvV/HTmes"
    "9KLR5Y3O/LReJLkl5km8Ti9aPGjOZXGgF/meu6NHdvagBBva+bC3PYjpVUjE9JUeRK2p4kGzrQeJ"
    "auZR/yjvRh6o+LWrXTcS0ZLOnTjfjdSaKXpb/3QhTvvasPa8LvTd5K6psmUXmvTMEHA414XCwh9K"
    "qK90ovcTI0e+FnSiiP9q327adKKRo7JSlRKdyEL1F3mYqhM9nRHk4az9gn4lnn+a4fYF/YgpOdil"
    "8AUtuQ54vt3zBR34w8PQ9fUz6uh135Mc/Rn9KrXno33yGQ1fYJuaEfyMrkcJUN1Z7UBOWckCslUd"
    "6Jdd5uU8jw7U37p+LPZWBzrDLVjLeLADGUmJci1NtSPtQ2mXlPPa0XELmdvHHNvRhsVlOxOFdvT3"
    "Bd3cqf3t6Cutze+7E23oTnHI0AalDTmws9PTObWhXz7DA6+V21BhROEnvUNt6Glcz438uVYkrPx2"
    "xaCiFe2WmLju4dOK2r01Zxm0W9EJ2+f2S0Kt6Mllv2QJ6lak4vf3antyC3ohEaDxQ6EFhQ6OMxYu"
    "NqN5STVCNqQZxTue6vSSbEaiCodkPX40ofyZ7/sk3jahDcEcruhzTSiidVmEMvgJUbE1K1i5fUIz"
    "6QWaY6c/oTPSorqb3xpR7IiJbal7I5L41ZfPLdKI6NSnpE6NfkRXoFy+z/cjKtb4xsB74SPaVTPS"
    "xjrbgA6zSoxERjSgKN+x8FqFBvS86MjDN0QD+qKtGDGQWY/+7POobnpQj8Z++CveYK1HaRxO9U8a"
    "6tDmpYiCPXZ1SPTYvgIlwTo0+XrmwYGxWnSsN+6uZWgtSmkTuHlXqRYJPslYbd1eiyiVKrTNpTVo"
    "yYpfSsWiBl3x2P5Mm78GrVJA9fdYNQoQCOpmjqxGtZ9ONmSoVaOQJyJ0Hbur0bbEFSfL5irU8MWf"
    "J8y1CqXTr36TkqlCBnalSbpbqtDpFmqnnaWVSDL4vgmvTSWyGi+yqRWpRDofxdP7lyvQo05BLsPc"
    "CmSVNjv23KwCnTJu4NoQrkBce6d//V4oR6coKjZ6OeWoNDZvRtG8HFG/NLBOPVuOPCcb49ZnyxAL"
    "NfsjJ/MyBFWOaQurpehTgRf1pVelaK1Qa8l6RykK8ktl9fEuQV3XfGic2UvQ7Q17ffWYYpTOxL9I"
    "z1+M3vIY3w4pKMI5cEaF6lIR0lHRybzYUYjyRHrENbUK0bHFS63XZguQkb7wZRb7AlRgNuqSzlSA"
    "xJTvOHJG56PCarET90/no4W4LnvTujzECexvbqvnIQrra1m6WQriogj0eTpR0O+BjxoDHBQkUeTz"
    "cy0rF51tVSsYlctFx3u850O+5yCNoIsd++xyEEPmkbCHe3NQeERosGVWNmL7UcuufD0btXn6WyxP"
    "ZiGjbc1MWi5ZyCPshJIvTxaSjDFMcK3JRL7K5m8v6WQixY+3nOu3ZSIxDmd2xvgMtLd+qYv9Sgay"
    "CNArbO1KR6fHpYMXOdPRaBZ/bLhuGmJSFbzSnJmK5J5zbnXcSEETB7c/LJZLQU49pUzWwcnotf2T"
    "yqKJJCQyx3H5lVgSumpr4/DRKxE9s7Q3CPyegPRFz+8fF01A4TuSc4p94tGNdMrzPVNx6EIkT928"
    "TBz62F6z+2Z0LJqqCZgHIhax6/OwJN/7gP6y/b0cWR6D0ljQiwOHYxB9+a2Gw87R6POuhXs501Eo"
    "Kps9olU5Cil12tJbF0eimdX/1LJ4IpF3UHrdMncEemymZJ32NwzRcwirePe/R0aqq4pRpaEo9Lrv"
    "2Fh0CJLl3c2o6xaMdIOnlY+ZB6GAdedewQeByFIy2sRdJQApUSXHiV95h0pnnZuVLvij15qCR9rB"
    "DwmdLxhqEPNF9+6ZqMhI+KBZKk7aG9LeqLnOdWAj1AvdPmrAUkDxQCcbpG6udruhkvi3jyepXNGS"
    "WdIY5bQzamQdofMzcELahkoV+RmOyNgi+6fe2iv0p+ve8fnr9qhG02xV6bYdOisb+HnisDXiOjt9"
    "LoLaEm0c+t4cuGqKLkre1hPfboyY5ZteZas+RX83oxZcuh8h7pihBH1/LXREgl4ll08NFax7/t6Z"
    "pYDk6SKE9leJowrNMv/ph23AfkHTPUz1PvBdU7+S1fkECj3VE8/4GYMpr9zo2CFzsLeuXPNWtIJP"
    "ec9/tYnYQFDJs7zuaTsAjdors2L2YLTcyf3V6BUI8/R6UwU5wEcD8U2XbEc4uElXu6fmNVTJUYWt"
    "NDlBCV/8rGTLG2Bv3dvb1OAMhvc7VNRKXaD93KGb9qmusPWGZml9oBtUx/T3x9q5gyvy6LK55wFn"
    "beeuRYt7wh3TOatHbF6QpHCvhX7WC2iFHmu2V78FVfMnPy3kvWHdPvSybLY3pC9dcV5g94HIb/JT"
    "Hi994McViQmeER/g/yui037ZF+geHx4KT/IF+V6e2BB6P6ByeDbc/swPIrUPtik3+4GsrtHHY/z+"
    "sOvHmXsanv7gR9ekvzLlD9cMrY7TyL2DjdJ8ca/4d9DC318XRB0Ag4/pn53UCgDpxFVt5ZIAKPJ+"
    "/pyZPRBMn28/bGAWCCavXtgatgRC8JdNZQ7eIJge4jtl+ToIeGtaFV0GgkA6eqNEWSQYRHanSg34"
    "BEPZ1r/mJ6aCQc6FpVRKOgS02gOUj4SFQAP3vHT3UgiEBl59fu96KLi+RdmlcaEQvKnm92czFCLa"
    "jUJ2334PX+9U8jGlv4e1sVmveZow8NTvniu5Gwa3vaWemFPCYFPQ9jcHQzhIM7U45uiEgzbH8OiF"
    "knCI8KcarmWJgNzN23yXnkZAVCK1TmVVBPRACHPEf5GgnfnfsqZoJKxYmOwndSLBhJAv+u4dCee2"
    "GG9NLY6ER6esuWzHI2FPyl7RGyxRUGpnZCggGQVrLy2H9j6NgoDD4om0QVHgeEO8n6Y6CoarE72Z"
    "ZqNgG0Nmx9H90XA8pjL7mmw0RLC1ijmaRUNSk7tZQ2Q0aIrFPjzYFA0H925l9vgTDcwWa7Y7eWIg"
    "isMtKexGDMzucwq59DIG1n+1XKVJiYFnwp7l/d0xUE2rsNi07QO0Pr001iX0AeKfGvuv3/sA1Y71"
    "6+D5AT6w6R8IKfwAkzKNiyzjH2CN6HmVticWVnJPVOtejIWjhoLFF4xj4c/76/riEbFwxo/5s3pT"
    "LPC03FoNW4sF/n2m36l548AjVCPARzUOZqY6OGSc4+AbeL7gosTBjji1Ru7ROFhLVGRWZomH/dSr"
    "WikX40GgzbJN0DQednJnWoxEx8PvvXb6Ne3xYGnS/OkLVQLwjn0rZBVOgB87tNRcHySACuOHFn7/"
    "BPC//0l2R00C7N6zucC6nABDpl7UGkcTwc3hTFa3aiIsFkmKerklgubWul674kRQmujvS5hJhJNq"
    "rW5MB5PAu/bWGYpyEjAutAqFvkkCa51X38oLkuBvysewYz+TINfdoLODKxmkjrSsVKkkA0VByGbV"
    "JRmYeLZ/tSpJBqeNk2GS88lwclDquvLRFPiQOemQpZECa4cPd9/zTYGnse8WNOpTwN74p2PyZgqk"
    "zgtcuHYmFTZjOH9efJoKO2M9lX1iUuHlmXa5c19TIVSRJ+fc7jS48YHV1l8+DV4eXgxReJ0GVhZy"
    "e/RL0uCxj/r6+DIeL440aBRIh9a7SkEs+ukwOvQruzY2Hbpp+3eODKbDZ+Y/1ucYMoBDlPnX6RMZ"
    "EMPtG64vlwFfeZhb+h5nAGPq+RZX5wxgrxf+bRqXAYb+ROL7mgzIa/mluG00A5p/0T1Kp84EuT2+"
    "T95zZwLfecPpJulMqKCudpLRyYTwNMN+6jeZwGUVHf9ffCbc4bWK06rPBCPh0CSqyUyIXpz1m6fL"
    "AsVRhRvC/FlQKCY5VquYBXG9dVrpplnApyw1MROQBUpfZXKcC7PA6GQAg+1AFuio8ag1U2VDazwv"
    "3auj2aDTIJYdcDUbbiV4rDCbZMNFpdPvlwKzwdHd01q6FJ83kOqxZTQbUmeWJk7R58CKVElDu3AO"
    "nGjgcPqpngNC/h1Bjq9z4GqUZnxQag4czdxvI9CVAzveFexQ2JILWUkpxit8uXAnfoVG8HYuaElz"
    "XN1wyIXtQyKrWum5EF7isvVhXy48Z9sRuGMnBfz5bbhvilBAaLHqvoIuBWZkA+U2AijAaRNySqeO"
    "AtuPLGZ6rlCArV2j2Y43D6qMS4ZBMw/+GOvntnvnQYcFi93lmjzYxWIwEbOK50vLT8wJ5IOU6WMa"
    "0cf5kKyu1+wUmQ/vzoo5DPfkg7T5QvsdlgJg4F0/vaZQAN37POdaPQpgsof7/OTHArCauyJxa2ch"
    "iF0dv3hEvhAm36RWPvYshGqZbgfhtkLYSdlaHsxaBIyTPoqZmkVwt9ei3SeuCCx/yQ+ozBVB/GDl"
    "BVaJYlisr5da9CiGl4nz04wDxVAjclTfU7AEpsWmDf2dSyBi7nq64mAJ3KdlN5gXK4UKxwXe9JBS"
    "kJtU1K1cL4X43z6BBtplMFq7fHGzsQz4p7Wzh/eXwy+vJXfmW+VwPbaxqcKnHCJlNa0EW8shzvfi"
    "1gTmCuCVNte1ulUBnZXZxVsjKsB2tSGyeKoCInzUKHzilRCbdCVtya8SZpml3b7PVsLd35+OzqhU"
    "gVZ+fd31iirQ3j3yKPBcNbQpXW7qKqiGZdMW6JargfbdpkPWMzVgUib/TDepFk7VTnYqOtcB+8/5"
    "sQi/enCykf2vb6IB1o17lcKrGsGx6MXxnoZmqA3kPspyYz/x/+OF4PsudbvdBBMgryUDNiItg0Eo"
    "L3QfYSvN/vtoGwexT8eF8cC7/YSJqMbJTY4DRBab/hf1FwcIoxN7+083HCDqw1K+0VJzEmetPhvb"
    "CHMS0Xm2e93vcBJPqQ1ppWw4CYm0Hen/BXIS4bPXM5fSOIlbOjnbS6o4ieZg59nlL5yEyy2DNJYx"
    "TqJ1/9mPBoucxIfP/RbyW0iCEhC/+zs9SVj/ntN7sJckjI7I0M9zkYRZghJ72nGSELpZ8DZTkCRo"
    "Km4r7RIliat6BlPDiCRWXbqEhC+RBMP5A2VMV0nikLDGVWclkiifrqKNukUSAcG0PY/UScKjlclh"
    "8B5JmNyW7md5SBJWAU7LtI9JYoyKj7dGnyQWR4TE5Q1J4vyct3GkCUl00l4LrDfH99Gg5qizwvPo"
    "wq4IG5Jwi9h+SfkFSYgwD4uN2ZOEtk+q+B1HkthVcOt+phP+LZXl+tMZr8vMz5zJjSRSRMULOTxI"
    "Qq5V5hOTF0mwSmyhmntLEoOqjgElPiTRnX45xdKPJHofuitwvSMJX5EHVvkBWJcA+gtBJGFfeGmo"
    "MJgkiJd6xTyhuD7GHLec3pMEVXeLWlcYSTRHaekeiMDrPEvLohqJ1yV8fso5iiTWq/UNU6NJwoGm"
    "eV9DDElEP5m59/UDSdjSXksaicXjuiN3R+NIopoztq8//l+dx2ybE0hi5l6zX14iSajmpxoFJ+G6"
    "O6jeNUsmidfbzGJkU0hiPKLMgTUVP8/httgA9umB+R2RaSTxIoONWyMd18FavXJXBq7Xt1es1djV"
    "OYqiUSaua0BW+N4sXIeEb3yFWLbrLw+qZpMEfWlD3By2M4V+6E0OXrdf3cLeXJJI2qghYrGqm+eO"
    "8VNIYueWBpdsbND2XHQmjyQS7PoeZ2N3FHZy8ueTxPLlrTaxWDPGkHfsBSRBbVLo5IblMXyutYJ9"
    "Mzwj/qAQ13/6wqlGrLRPjqxAEUkMf0h774sNp6qHeaz/8XZRhWKS+Cw5FJOIDX+r4ralhCTemwys"
    "3cI+6XSnScJKosa8VezAQ9P9V0pJ4q5eg+Q77LHMNwLfsGZaA8s8Zfj+bg7hT7HV1ImCGdiMDcbC"
    "OayLDNUFwXKSyFJRbzHA8rC4P0vCuukFHx7BPnQ7/oejgiSk2O2WlLByjJbkG2yOWbhd/r/xSS7W"
    "CezAti8zeytJYtMR/pPBViq8sTDCMjzwPhWCvWQ/AZXYnNr26HHs9KELOv9V4fn3A84C2NoXdAw3"
    "sCuPvq0aY98c41Xyxq4Gmu1OxcoKb5Gux0omfxoZwiZc8/r9B3tfMd+OqZokHm9YWh3B1pbljotg"
    "eZn3tMhhxy8v8qljqWWe/tXDZm1RvGKJzV/jo3XELr+UkfDE7msP/vEOmyHQvzUMK5Tz3Ccau77d"
    "yysO67E2tZKADZ9kbU7Enl69QPfPyGPXU//Nm/HXZ/w7f/jkGPO/6xdPOn36d7/yuzx9Hljrw9Ni"
    "DtixgYAxc6zDi1edutiz5WHbVLFc/EbPLmGDGum2C2MZDP5rPPBvfUUBmTRY7UbZrJ/4fUFNorod"
    "m+OzbSAXe1UreCkA6ytzh7DAGvnRLPyrI9uxrIqTWBerkns0WO35xrI+XPfwiIKODOzs+lsPB+zD"
    "uee9Sv/GOygpnNhbuh5z4/h7QtG5gAwsU1PfG3MspdMs7RyWhbtoeRnviw/X2GSzsbPp7q5P/+2T"
    "Bd/IQ9h8E0bjL3hfecke73+N3Vl7qkYAW0tvub0H78deOyF7OyxLnDwtJ3aH9BnrQrx/eVYK4m9g"
    "93HVPhjD+33k2gk7c2xS3oOyv7gfosfQ/GusR1tkDzU2xWjfmZe4f9govmULuK/Wkz/za2NZ5fYK"
    "f8T9p6JuYcGH1XBVf++E+9P/5hfJbty3Uno9vw9hB88ZXtXBfd2uV1YWjvv90o+t9c24/yXeK7cs"
    "4ly4cUxaiAlLHXBHggvnRuWQlAA3zpG459WCHDhfqId0b1PjvDE5WRY2gPNoJ43kWALOp2N/gxe0"
    "cF5FPzLU2YHzCzwVs0NwrrHMt/HsxTlHTLp/tsH5519e41eLc5FlwW5xEeflzlJ9YWqcn8V/nvPN"
    "4VytTt4jnR+C63nKSv0mzl8r1JpchXN5fq45ccOXJPaPhPSu4/xecTINL8C5ThNweZrXFdf9K/Uf"
    "GZz/IVvPVm3g/wWeCVErKVuS+MSrGkNY4uu49zFyGeP+OJN32uEJSTwaTiCIB/h53xW8H93B78Pc"
    "fN1EEX8nQ41HddL4PdTcYkbP4vWdVjzNwoPXS21DLcGM93Hj7dW0ZU6Cc49LlEcHJ5FxchdnXDQn"
    "YcvjXqelhn/TpfAt9x8gysdHeq593U/8D9zwKWU="
)


def _load_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    raw = zlib.decompress(base64.b64decode(_ZIG_PAYLOAD))
    fe = np.frombuffer(raw, dtype="<f8", count=256, offset=0).copy()
    we = np.frombuffer(raw, dtype="<f8", count=256, offset=2048).copy()
    ke = np.frombuffer(raw, dtype="<u8", count=256, offset=4096).copy()
    for arr in (fe, we, ke):
        arr.setflags(write=False)
    return fe, we, ke


FE, WE, KE = _load_tables()

#: KE as a plain list of ints — the scalar hot path avoids numpy scalars
_KE_LIST = KE.tolist()
_WE_LIST = WE.tolist()
_FE_LIST = FE.tolist()

_M32 = 0xFFFFFFFF
_INV53 = 2.0 ** -53


def raw_tape(state: dict, count: int) -> np.ndarray:
    """``count`` raw ``next_uint64`` outputs of a PCG64 at ``state``.

    ``state`` is a ``bit_generator.state`` dict.  Full-range
    ``integers`` is special-cased by numpy to the raw bit stream, so
    this runs at C speed and consumes exactly ``count`` tape tokens.
    """
    bg = np.random.PCG64()
    bg.state = state
    gen = np.random.Generator(bg)
    return gen.integers(0, 2 ** 64, dtype=np.uint64, size=count)


def generator_at(state: dict, pos: int, has32: bool = False,
                 cached: int = 0) -> np.random.Generator:
    """A real numpy ``Generator`` positioned ``pos`` tape tokens after
    ``state``, with the uint32 half-cache restored."""
    bg = np.random.PCG64()
    bg.state = state
    bg.advance(pos)
    st = bg.state
    st["has_uint32"] = int(bool(has32))
    st["uinteger"] = int(cached)
    bg.state = st
    return np.random.Generator(bg)


class Tape:
    """Scalar draw-stream replica over a pre-generated uint64 tape.

    Mirrors the exact consumption and values of a numpy ``Generator``
    for the draw types used by the trace generator.  ``pos`` counts
    consumed tape tokens; ``has32``/``cached`` mirror the generator's
    internal uint32 half-cache (``has_uint32``/``uinteger``).
    """

    __slots__ = ("tokens", "pos", "has32", "cached")

    def __init__(self, tokens, pos: int = 0, has32: bool = False,
                 cached: int = 0) -> None:
        #: plain python ints; list indexing beats numpy scalar extraction
        self.tokens = tokens.tolist() if isinstance(tokens, np.ndarray) else list(tokens)
        self.pos = pos
        self.has32 = has32
        self.cached = cached

    # -- primitives ---------------------------------------------------

    def u64(self) -> int:
        v = self.tokens[self.pos]
        self.pos += 1
        return v

    def random(self) -> float:
        return (self.u64() >> 11) * _INV53

    def u32(self) -> int:
        if self.has32:
            self.has32 = False
            return self.cached
        v = self.u64()
        self.has32 = True
        self.cached = v >> 32
        return v & _M32

    def integers(self, excl: int) -> int:
        """``Generator.integers(0, excl)`` for ``excl <= 2**32`` —
        Lemire's multiply-shift with rejection on uint32 halves.

        A single-value range consumes no bits (numpy returns the offset
        directly), and the full 32-bit range is the raw next_uint32.
        """
        if excl == 1:
            return 0
        if excl == 2 ** 32:
            return self.u32()
        m = self.u32() * excl
        leftover = m & _M32
        if leftover < excl:
            threshold = (2 ** 32 - excl) % excl
            while leftover < threshold:
                m = self.u32() * excl
                leftover = m & _M32
        return m >> 32

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    # -- distributions ------------------------------------------------

    def std_exp(self) -> float:
        """256-level ziggurat ``standard_exponential``."""
        while True:
            ri = self.u64() >> 3
            idx = ri & 0xFF
            ri >>= 8
            x = ri * _WE_LIST[idx]
            if ri < _KE_LIST[idx]:
                return x
            if idx == 0:
                return ZIG_R - math.log1p(-self.random())
            if ((_FE_LIST[idx - 1] - _FE_LIST[idx]) * self.random()
                    + _FE_LIST[idx] < math.exp(-x)):
                return x

    def geometric(self, p: float) -> int:
        """``Generator.geometric(p)``: CDF search for p >= 1/3,
        exponential inversion below."""
        if p >= 0.333333333333333333333333:
            u = self.random()
            x = 1
            s = prod = p
            q = 1.0 - p
            while u > s:
                prod *= q
                s += prod
                x += 1
            return x
        return math.ceil(-self.std_exp() / math.log1p(-p))


def self_check(seed: int = 12345, n: int = 4096) -> bool:
    """Fast replica-vs-numpy equivalence check (used as an import-time
    gate by the vectorized generator)."""
    ref = np.random.default_rng(seed)
    state = ref.bit_generator.state
    tape = Tape(raw_tape(state, n))
    try:
        for i in range(600):
            kind = i % 6
            if kind == 0:
                if ref.random() != tape.random():
                    return False
            elif kind == 1:
                if int(ref.integers(0, 8)) != tape.integers(8):
                    return False
            elif kind == 2:
                if int(ref.integers(0, 24576)) != tape.integers(24576):
                    return False
            elif kind == 3:
                if int(ref.geometric(1.0 / 6.0)) != tape.geometric(1.0 / 6.0):
                    return False
            elif kind == 4:
                if int(ref.geometric(1.0 / 2.6)) != tape.geometric(1.0 / 2.6):
                    return False
            else:
                if ref.uniform(0.35, 0.65) != tape.uniform(0.35, 0.65):
                    return False
    except IndexError:
        return False
    # the re-synchronised generator must agree with the reference
    resync = generator_at(state, tape.pos, tape.has32, tape.cached)
    return bool(resync.bit_generator.state == ref.bit_generator.state)

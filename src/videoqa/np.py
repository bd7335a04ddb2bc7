"""numpy, imported on the first attribute read: `from . import np`, then
`np.asarray(...)`. Only a build reads one, so answering never loads numpy.
Each attribute is then cached here as a plain module global. Threads that
race to the first read wait on Python's import lock for one whole import.
Not `importlib.util.LazyLoader`: on Python 3.10 and 3.11 its module takes
no lock, so a second thread can see numpy half executed."""


def __getattr__(name: str):
    import numpy

    value = globals()[name] = getattr(numpy, name)
    return value

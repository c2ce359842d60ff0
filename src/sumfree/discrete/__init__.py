from .search import *  # noqa: F403 -- the names of search.__all__
from .search import __all__

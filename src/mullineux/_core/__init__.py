"""Hot crystal and beta-set kernels (see mullineux._core.kernels)."""
